// Command perfbench is the repository benchmark. It drives the simulator
// and the avfd daemon through their public entry points and prints one
// JSON result line (the last line of standard output) with every
// end-to-end metric, or with --trace 1 every per-layer metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-fused --seed 1 --seconds 35 --trace 0
//	bash perfbench/run.sh --compare base.ndjson,change.ndjson
//
// Workloads (all closed loops from one process):
//
//	sim-fused     one client calling experiment.RunCtx back to back on
//	              paper-shaped jobs (M = N = 1000, classic engine)
//	daemon-fresh  two clients against an in-process avfd; every job is a
//	              unique short lanes=64 run, so every job misses the cache
//	daemon-dup    the same daemon and clients; every job is one of eight
//	              specs filled into the cache before timing, so every
//	              timed job is served from the cache
//
// The lines before the result describe the run: the host fingerprint,
// each metric with its unit and, for percentiles, the sample count.
// --out FILE appends the run's record to FILE; --compare A,B compares
// two such files and refuses when their host fingerprints differ.
//
// The exit code is non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jobTimeout bounds one job: a RunCtx call or one HTTP request.
const jobTimeout = time.Minute

// e2eMetrics are the end-to-end metrics, reported on every workload. A
// traced run reports the rest: the per-layer metrics.
var e2eMetrics = map[string]bool{
	"setup_s": true, "sim_cycles_per_cpu_s": true, "injections_per_cpu_s": true, "avf_abs_err": true,
	"heap_peak_mb": true, "jobs_per_s": true, "cpu_ms_per_job": true,
	"first_estimate_ms_p50": true, "first_estimate_ms_p90": true, "job_ms_p50": true, "job_ms_p90": true,
}

// report accumulates one run's metrics, the sample count behind each
// percentile or median, and notes on layer metrics that a workload
// cannot show.
type report struct {
	metrics map[string]metric
	samples map[string]int
	parts   map[string]int // metrics taken per part: the number of parts
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}, parts: map[string]int{}, notes: map[string]string{}}
}

// result returns the metrics of the result line: the end-to-end ones, or
// with trace the per-layer ones.
func (r *report) result(trace bool) map[string]metric {
	out := map[string]metric{}
	for name, m := range r.metrics {
		if e2eMetrics[name] != trace {
			out[name] = m
		}
	}
	return out
}

// set records a metric. A value that is not a finite number (a rate over
// an empty window, when every job failed) is recorded as 0.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

// setPct records the p-quantile of xs as name, with its sample count.
func (r *report) setPct(name, unit string, xs []float64, p float64) {
	r.set(name, unit, percentile(xs, p))
	r.samples[name] = len(xs)
}

// na records a layer metric the workload cannot measure, as 0 with the
// reason printed beside it.
func (r *report) na(name, unit, why string) {
	r.set(name, unit, 0)
	r.notes[name] = why
}

// outcome is what a workload returns to main.
type outcome struct {
	attempted, failed int
	rep               *report
	// failures holds one line per failed output check (printed, capped).
	failures []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// record is one run as written by --out and read by --compare.
type record struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Result      result            `json:"result"`
	Samples     map[string]int    `json:"samples,omitempty"`
	Notes       map[string]string `json:"notes,omitempty"`
}

var workloads = map[string]func(seed uint64, seconds float64, trace bool) (*outcome, error){
	"sim-fused":    runSimFused,
	"daemon-fresh": func(seed uint64, s float64, t bool) (*outcome, error) { return runDaemon(false, seed, s, t) },
	"daemon-dup":   func(seed uint64, s float64, t bool) (*outcome, error) { return runDaemon(true, seed, s, t) },
}

func main() {
	workload := flag.String("workload", "", "sim-fused | daemon-fresh | daemon-dup")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 35, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", "", "append this run's record (fingerprint, metrics, sample counts) to FILE")
	compare := flag.String("compare", "", "BASE,CHANGE: compare two --out files recorded on the same host")
	flag.Parse()

	if *compare != "" {
		if err := runCompare(*compare); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sim-fused, daemon-fresh, daemon-dup), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	// A hung job must not hang the benchmark: each job gives up after
	// jobTimeout, and the whole run after this.
	time.AfterFunc(time.Duration(4**seconds+60)*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	fp := hostFingerprint()
	printJSON(map[string]any{"fingerprint": fp, "workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace == 1})

	o, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range o.failures {
		fmt.Println("check failed:", f)
	}
	printMetrics(o.rep)
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.rep.result(*trace == 1),
	}
	if *out != "" {
		rec := record{Workload: *workload, Seed: *seed, Trace: *trace == 1, Fingerprint: fp,
			Result: res, Samples: o.rep.samples, Notes: o.rep.notes}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printMetrics writes one human-readable line per metric, sorted by name.
func printMetrics(r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-36s %14.6g %s", n, m.Value, m.Unit)
		if k, ok := r.samples[n]; ok {
			line += fmt.Sprintf("  (n=%d", k)
			if p, ok := r.parts[n]; ok {
				line += fmt.Sprintf(", median of %d parts", p)
			}
			line += ")"
		}
		if why, ok := r.notes[n]; ok {
			line += "  (not measured: " + why + ")"
		}
		fmt.Println(line)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are printed
	}
	fmt.Println(string(b))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

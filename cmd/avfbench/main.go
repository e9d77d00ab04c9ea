// Command avfbench measures the simulator's cycle-loop performance under
// four standardized scenarios and appends a machine-readable report
// (BENCH_<n>.json) to the repo's benchmark history:
//
//	bare       the pipeline alone — the raw timing-simulator hot loop
//	softarch   + the offline reference analyzer on the pipeline hooks
//	estimator  + the online AVF estimator (inject/propagate/conclude)
//	fused      + both, wired exactly like internal/experiment.Run
//
// With -flight two more scenarios measure the flight recorder's
// marginal cost: estimator+flight and fused+flight. With -wal two more
// measure the durable-store checkpoint overhead — every per-interval
// estimate appended to a CRC-framed fsync'd WAL, exactly as avfd
// -data-dir persists it: estimator+wal and fused+wal. With -span two
// more measure request-span recording — one interval span per completed
// estimate into a bounded ring, the write avfd makes when -spans is on:
// estimator+span and fused+span. With -microtel two more measure the
// microarchitectural telemetry collector — occupancy residency sampling,
// coverage-map writes, and Wilson intervals, the cost of a job's
// "microtel": true — estimator+microtel and fused+microtel. With -sched
// two scheduler-dispatch
// scenarios compare single-class submission against a four-SLO-class
// mix (ns per dispatched task): sched-single and sched-classes. With
// -cache two result-cache scenarios measure the admission fast path —
// spec canonicalization + SHA-256 keying (cache-key) and keying + hit
// lookup against a populated cache (cache-hit), in ns per op. With
// -lanes 8,32,64 the estimator and fused scenarios are re-measured with
// the multi-lane injection engine (estimator+lanes<k>, fused+lanes<k>);
// the inj/sec column — injections concluded per wall-second — is the
// lane engine's headline throughput, with the plain estimator scenario
// as the lanes=1 baseline.
//
// Each scenario simulates the same workload for a fixed cycle budget
// after a warm-up, reporting ns/cycle, cycles/sec and allocation rates.
// Reports are stamped with the build's VCS revision (when present) so
// history entries attribute to commits.
// When a previous BENCH_<n>.json exists the new report is compared
// against it and regressions beyond -threshold are listed;
// -fail-on-regress turns them into a non-zero exit for CI.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"avfsim/internal/cache"
	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/flight"
	"avfsim/internal/microtel"
	"avfsim/internal/perfstat"
	"avfsim/internal/pipeline"
	"avfsim/internal/sched"
	"avfsim/internal/softarch"
	"avfsim/internal/span"
	"avfsim/internal/store"
	"avfsim/internal/workload"
)

// Estimation parameters for the estimator/fused scenarios. They match
// BenchmarkFigure3ErrorStats-scale runs: one injection every M cycles,
// N injections per estimate.
const (
	benchM = 1000
	benchN = 100
)

type scenarioDef struct {
	name      string
	softarch  bool
	estimator bool
	flight    bool
	wal       bool
	span      bool
	microtel  bool
	// lanes > 1 runs the estimator's multi-lane injection engine with
	// that many concurrent experiments (see core.Options.Lanes).
	lanes int
}

var scenarios = []scenarioDef{
	{name: "bare"},
	{name: "softarch", softarch: true},
	{name: "estimator", estimator: true},
	{name: "fused", softarch: true, estimator: true},
}

// flightScenarios measure the flight recorder's marginal cost over the
// matching base scenarios. Only run with -flight so the default report
// shape (and its regression comparison) stays stable; perfstat.Compare
// skips scenarios absent from either report.
var flightScenarios = []scenarioDef{
	{name: "estimator+flight", estimator: true, flight: true},
	{name: "fused+flight", softarch: true, estimator: true, flight: true},
}

// walScenarios measure the durable checkpoint path's marginal cost over
// the matching base scenarios: each completed per-interval estimate is
// appended (and fsync'd) to a store WAL in a temporary directory, the
// same write avfd -data-dir makes. Only run with -wal for the same
// report-shape stability reason as -flight.
var walScenarios = []scenarioDef{
	{name: "estimator+wal", estimator: true, wal: true},
	{name: "fused+wal", softarch: true, estimator: true, wal: true},
}

// spanScenarios measure the request-span path's marginal cost over the
// matching base scenarios: every completed per-interval estimate is
// recorded as a child span in a bounded ring, the same write avfd makes
// per interval when -spans is on. Only run with -span, for the same
// report-shape stability reason as -flight.
var spanScenarios = []scenarioDef{
	{name: "estimator+span", estimator: true, span: true},
	{name: "fused+span", softarch: true, estimator: true, span: true},
}

// microtelScenarios measure the microarchitectural telemetry
// collector's marginal cost over the matching base scenarios: every
// concluded injection lands in the coverage map, every injection
// boundary samples the occupancy histograms, and every completed
// estimate computes a Wilson interval — the writes avfd makes when a
// job runs with "microtel": true. Only run with -microtel, for the
// same report-shape stability reason as -flight.
var microtelScenarios = []scenarioDef{
	{name: "estimator+microtel", estimator: true, microtel: true},
	{name: "fused+microtel", softarch: true, estimator: true, microtel: true},
}

// cacheScenarios measure the content-addressed result cache's admission
// fast path (reusing the ns/cycle column; "cycles" = operations):
// cache-key is spec canonicalization + SHA-256 keying alone — the cost
// every submission pays when the cache is on — and cache-hit adds the
// Begin lookup against a populated cache, the whole server-side
// decision for a duplicate submission before the replay write. Only run
// with -cache, for the same report-shape stability reason as -flight.
var cacheScenarios = []struct {
	name string
	hit  bool
}{
	{name: "cache-key"},
	{name: "cache-hit", hit: true},
}

// schedScenarios measure the scheduler's dispatch path: no-op tasks
// pushed through the worker pool, reported as ns per dispatched task
// (reusing the ns/cycle column; "cycles" = tasks). sched-single keeps
// every task in one class — the pre-class-queue behavior — while
// sched-classes spreads submissions round-robin across all four SLO
// tiers, so comparing the two bounds the per-class-queue overhead.
// Only run with -sched, for the same report-shape stability reason as
// -flight.
var schedScenarios = []struct {
	name    string
	classes []sched.Class
}{
	{name: "sched-single", classes: []sched.Class{sched.ClassStandard}},
	{name: "sched-classes", classes: []sched.Class{
		sched.ClassCritical, sched.ClassStandard, sched.ClassSheddable, sched.ClassBatch,
	}},
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced cycle budget for CI smoke runs")
		cycles    = flag.Int64("cycles", 2_000_000, "measured cycles per scenario")
		warmup    = flag.Int64("warmup", 200_000, "warm-up cycles before measuring")
		bench     = flag.String("workload", "mesa", "workload profile to drive")
		seed      = flag.Uint64("seed", 0, "workload trace seed")
		outDir    = flag.String("out", ".", "directory holding BENCH_<n>.json history")
		threshold = flag.Float64("threshold", 0.20, "regression threshold vs previous report")
		failRegr  = flag.Bool("fail-on-regress", false, "exit nonzero when a regression is flagged")
		doFlight  = flag.Bool("flight", false, "also measure estimator/fused with the flight recorder attached")
		doWAL     = flag.Bool("wal", false, "also measure estimator/fused with per-interval WAL checkpointing attached")
		doSpan    = flag.Bool("span", false, "also measure estimator/fused with per-interval request-span recording attached")
		doMicro   = flag.Bool("microtel", false, "also measure estimator/fused with the microarchitectural telemetry collector attached")
		doSched   = flag.Bool("sched", false, "also measure scheduler dispatch: single-class vs per-SLO-class queues (ns per task)")
		doCache   = flag.Bool("cache", false, "also measure the result cache's admission path: spec keying and hit lookup (ns per op)")
		doLanes   = flag.String("lanes", "", "comma-separated lane counts >1 (e.g. 8,32,64): also measure estimator/fused with the multi-lane injection engine")
	)
	flag.Parse()
	if *quick {
		*cycles = 300_000
		*warmup = 50_000
	}

	rep := &perfstat.Report{
		Schema:    perfstat.SchemaVersion,
		Benchmark: *bench,
		Quick:     *quick,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	rep.VCSRevision, rep.VCSTime, rep.VCSModified = perfstat.BuildVCS()
	fmt.Printf("avfbench: %s, %d cycles/scenario (+%d warm-up), %s %s/%s\n",
		*bench, *cycles, *warmup, rep.GoVersion, rep.GOOS, rep.GOARCH)
	if rep.VCSRevision != "" {
		dirty := ""
		if rep.VCSModified {
			dirty = " (dirty)"
		}
		fmt.Printf("avfbench: revision %s%s %s\n", rep.VCSRevision, dirty, rep.VCSTime)
	}
	defs := append([]scenarioDef(nil), scenarios...)
	if *doFlight {
		defs = append(defs, flightScenarios...)
	}
	if *doWAL {
		defs = append(defs, walScenarios...)
	}
	if *doSpan {
		defs = append(defs, spanScenarios...)
	}
	if *doMicro {
		defs = append(defs, microtelScenarios...)
	}
	if *doLanes != "" {
		lanes, err := parseLaneCounts(*doLanes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfbench: -lanes: %v\n", err)
			os.Exit(1)
		}
		// Lane scenarios ride on estimator and fused; lanes=1 IS the base
		// estimator/fused scenario (the classic engine), so the axis only
		// adds the multi-lane points.
		for _, k := range lanes {
			defs = append(defs,
				scenarioDef{name: fmt.Sprintf("estimator+lanes%d", k), estimator: true, lanes: k},
				scenarioDef{name: fmt.Sprintf("fused+lanes%d", k), softarch: true, estimator: true, lanes: k},
			)
		}
	}
	fmt.Printf("%-18s %12s %14s %12s %12s %8s %12s\n",
		"scenario", "ns/cycle", "cycles/sec", "allocs/cyc", "bytes/cyc", "ipc", "inj/sec")
	for _, def := range defs {
		sc, err := runScenario(def, *bench, *seed, *warmup, *cycles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfbench: %s: %v\n", def.name, err)
			os.Exit(1)
		}
		rep.Scenarios = append(rep.Scenarios, *sc)
		fmt.Printf("%-18s %12.1f %14.0f %12.4f %12.1f %8.4f %12.0f\n",
			sc.Name, sc.NsPerCycle, sc.CyclesPerSec,
			sc.AllocsPerCycle, sc.BytesPerCycle, sc.IPC, sc.InjPerSec)
	}
	if *doSched {
		// Dispatch is µs-scale per task where the cycle loop is ns-scale
		// per cycle, so the task budget is a fraction of the cycle budget.
		tasks := *cycles / 20
		if tasks < 10_000 {
			tasks = 10_000
		}
		for _, def := range schedScenarios {
			sc, err := runSchedScenario(def.name, def.classes, tasks)
			if err != nil {
				fmt.Fprintf(os.Stderr, "avfbench: %s: %v\n", def.name, err)
				os.Exit(1)
			}
			rep.Scenarios = append(rep.Scenarios, *sc)
			fmt.Printf("%-18s %12.1f %14.0f %12.4f %12.1f %8.4f %12s\n",
				sc.Name, sc.NsPerCycle, sc.CyclesPerSec,
				sc.AllocsPerCycle, sc.BytesPerCycle, sc.IPC, "-")
		}
	}
	if *doCache {
		// Keying is µs-scale per op like scheduler dispatch; same budget.
		ops := *cycles / 20
		if ops < 10_000 {
			ops = 10_000
		}
		for _, def := range cacheScenarios {
			sc := runCacheScenario(def.name, def.hit, *bench, ops)
			rep.Scenarios = append(rep.Scenarios, *sc)
			fmt.Printf("%-18s %12.1f %14.0f %12.4f %12.1f %8.4f %12s\n",
				sc.Name, sc.NsPerCycle, sc.CyclesPerSec,
				sc.AllocsPerCycle, sc.BytesPerCycle, sc.IPC, "-")
		}
	}

	// Find the comparison baseline BEFORE writing the new report so the
	// fresh file cannot match itself.
	prev, prevRep, err := perfstat.LastMatching(*outDir, *bench, *quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avfbench: %v\n", err)
		os.Exit(1)
	}
	next, _, err := perfstat.NextPath(*outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avfbench: %v\n", err)
		os.Exit(1)
	}
	if err := perfstat.Write(next, rep); err != nil {
		fmt.Fprintf(os.Stderr, "avfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("avfbench: wrote %s\n", next)

	if prevRep == nil {
		fmt.Println("avfbench: no comparable previous report; nothing to compare")
		return
	}
	regs := perfstat.Compare(prevRep, rep, *threshold)
	if len(regs) == 0 {
		fmt.Printf("avfbench: no regressions vs %s (threshold %.0f%%)\n",
			prev, *threshold*100)
		return
	}
	fmt.Printf("avfbench: %d regression(s) vs %s:\n", len(regs), prev)
	for _, r := range regs {
		fmt.Printf("  %s\n", r)
	}
	if *failRegr {
		os.Exit(1)
	}
}

// intervalObserver hands each completed estimate and its wall window to
// fn: the per-interval writes avfd makes.
type intervalObserver struct {
	core.NopObserver
	fn func(e core.Estimate, wallStart, wallEnd time.Time)
}

func (o intervalObserver) Interval(e core.Estimate, wallStart, wallEnd time.Time) {
	o.fn(e, wallStart, wallEnd)
}

// runScenario builds a fresh pipeline for def, warms it up, and measures
// the steady-state cycle loop.
func runScenario(def scenarioDef, bench string, seed uint64, warmup, cycles int64) (*perfstat.Scenario, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, prof.MustSource(seed))
	if err != nil {
		return nil, err
	}

	var est *core.Estimator
	var ref *softarch.Analyzer
	hooks := pipeline.Hooks{}
	if def.estimator {
		opt := core.Options{M: benchM, N: benchN, Lanes: def.lanes}
		if def.wal {
			// The checkpoint write avfd -data-dir makes on every completed
			// per-interval estimate: a CRC-framed, fsync'd WAL append.
			dir, err := os.MkdirTemp("", "avfbench-wal-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				return nil, err
			}
			defer st.Close()
			if err := st.AppendSpec("bench", map[string]any{"benchmark": bench}, time.Now()); err != nil {
				return nil, err
			}
			opt.Observer = intervalObserver{fn: func(e core.Estimate, _, _ time.Time) {
				pt := struct {
					Structure  string  `json:"structure"`
					Interval   int     `json:"interval"`
					AVF        float64 `json:"avf"`
					Failures   int     `json:"failures"`
					Injections int     `json:"injections"`
				}{e.Structure.String(), e.Interval, e.AVF, e.Failures, e.Injections}
				if err := st.AppendInterval("bench", &pt); err != nil {
					panic(fmt.Sprintf("avfbench: wal append: %v", err))
				}
			}}
		}
		if def.span {
			// The span write avfd makes per completed interval estimate:
			// a child span under the job root, three attributes, into a
			// bounded ring sized like the daemon default.
			rec := span.NewRecorder(span.DefaultCapacity)
			trace := span.MintTraceID()
			root := rec.StartAt(trace, span.SpanID{}, "job", time.Now())
			defer root.End("ok")
			opt.Observer = intervalObserver{fn: func(e core.Estimate, wallStart, wallEnd time.Time) {
				a := rec.StartAt(trace, root.ID(), "interval", wallStart)
				a.SetJob("bench", "standard")
				a.SetAttr("structure", e.Structure.String())
				a.SetAttr("interval", strconv.Itoa(e.Interval))
				a.SetAttr("avf", strconv.FormatFloat(e.AVF, 'g', 6, 64))
				a.EndAt("ok", wallEnd)
			}}
		}
		if def.microtel {
			// The telemetry writes avfd makes per "microtel": true job:
			// coverage-map write on every concluded injection, occupancy
			// sample at every injection boundary, Wilson interval per
			// completed estimate.
			opt.Observer = microtel.New(microtel.Config{})
		}
		est, err = core.NewEstimator(p, opt)
		if err != nil {
			return nil, err
		}
		hooks.OnFailureMask = est.HandleFailureMask
	}
	if def.softarch {
		// The reference's interval must match the estimator's, which
		// -lanes shortens.
		interval := int64(benchM * benchN)
		if est != nil {
			interval = est.IntervalCycles()
		}
		ref, err = softarch.NewAnalyzer(p, softarch.Options{IntervalCycles: interval})
		if err != nil {
			return nil, err
		}
		rh := ref.Hooks()
		hooks.OnRetire = rh.OnRetire
		hooks.OnRegWrite = rh.OnRegWrite
		hooks.OnRegRead = rh.OnRegRead
		hooks.OnTLBAccess = rh.OnTLBAccess
	}
	if def.estimator || def.softarch {
		p.SetHooks(hooks)
	}
	if def.flight {
		// A large ring so steady-state recording (not drop-chasing)
		// dominates the measurement.
		p.SetRecorder(flight.New(1 << 20))
	}

	// run simulates n cycles, skipping idle ones as experiment.Run does.
	run := func(n int64) error {
		for end := p.Cycle() + n; p.Cycle() < end; {
			horizon := end
			if est != nil {
				horizon = min(horizon, est.NextEvent())
			}
			if !p.StepUntil(horizon) {
				return fmt.Errorf("trace ended at cycle %d", p.Cycle())
			}
			if est != nil {
				est.Tick()
			}
		}
		return nil
	}
	if err := run(warmup); err != nil {
		return nil, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	retired0 := p.Retired()
	var inj0 int64
	if est != nil {
		inj0 = est.ConcludedInjections()
	}
	start := time.Now()
	if err := run(cycles); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	sc := &perfstat.Scenario{
		Name:           def.name,
		Cycles:         cycles,
		WallNs:         wall.Nanoseconds(),
		NsPerCycle:     float64(wall.Nanoseconds()) / float64(cycles),
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(cycles),
		BytesPerCycle:  float64(after.TotalAlloc-before.TotalAlloc) / float64(cycles),
		IPC:            float64(p.Retired()-retired0) / float64(cycles),
	}
	if sc.NsPerCycle > 0 {
		sc.CyclesPerSec = 1e9 / sc.NsPerCycle
	}
	if est != nil {
		sc.Injections = est.ConcludedInjections() - inj0
		if secs := wall.Seconds(); secs > 0 {
			sc.InjPerSec = float64(sc.Injections) / secs
		}
	}
	return sc, nil
}

// parseLaneCounts parses the -lanes axis: comma-separated counts, each
// in (1, MaxLanes].
func parseLaneCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if k <= 1 || k > pipeline.MaxLanes {
			return nil, fmt.Errorf("lane count %d out of range (1, %d]", k, pipeline.MaxLanes)
		}
		out = append(out, k)
	}
	return out, nil
}

// benchCacheEntries sizes the populated cache for the hit scenario —
// the avfd -cache-max default, so lookups run at production occupancy.
const benchCacheEntries = 4096

// runCacheScenario measures the result cache's admission fast path as
// ns per operation (in the ns/cycle column; Cycles = ops, IPC left 0).
// Every op canonicalizes a spec and computes its SHA-256 key — the work
// handleSubmit adds when the cache is on; with hit=true the op also
// runs Begin against a cache populated to the daemon's default
// capacity, cycling over resident keys so every lookup lands.
func runCacheScenario(name string, hit bool, bench string, ops int64) *perfstat.Scenario {
	spec := func(i int64) cache.Canonical {
		return cache.Canonical{
			Benchmark: bench, Scale: 0.02, Seed: uint64(i),
			M: benchM, N: benchN, Intervals: 10,
		}
	}
	c := cache.New(benchCacheEntries)
	if hit {
		for i := int64(0); i < benchCacheEntries; i++ {
			c.Put(spec(i).Key(), i)
		}
	}

	op := func(i int64) {
		k := spec(i % benchCacheEntries).Key()
		if hit {
			if out := c.Begin(k, "bench", nil); !out.Hit {
				panic(fmt.Sprintf("avfbench: %s: op %d missed a populated cache", name, i))
			}
		}
	}
	for i := int64(0); i < ops/10; i++ { // warm-up
		op(i)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := int64(0); i < ops; i++ {
		op(i)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	sc := &perfstat.Scenario{
		Name:           name,
		Cycles:         ops,
		WallNs:         wall.Nanoseconds(),
		NsPerCycle:     float64(wall.Nanoseconds()) / float64(ops),
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerCycle:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
	}
	if sc.NsPerCycle > 0 {
		sc.CyclesPerSec = 1e9 / sc.NsPerCycle
	}
	return sc
}

// runSchedScenario pushes `tasks` no-op jobs through a worker pool,
// cycling submissions over the given classes, and reports dispatch
// cost as ns per task (in the ns/cycle column; Cycles = tasks, IPC is
// meaningless here and left 0). SubmitWait absorbs queue-full
// backpressure so the measurement covers the steady-state
// submit→dispatch→finish path, not the rejection path.
func runSchedScenario(name string, classes []sched.Class, tasks int64) (*perfstat.Scenario, error) {
	pool := sched.New(sched.Options{Workers: runtime.GOMAXPROCS(0), QueueCap: 1024})
	defer pool.Shutdown(context.Background())
	noop := func(ctx context.Context, progress func(v any)) error { return nil }
	ctx := context.Background()

	// Warm-up: fill the dispatch path before measuring.
	warm := tasks / 10
	for i := int64(0); i < warm; i++ {
		if _, err := pool.SubmitWait(ctx, noop, sched.WithClass(classes[i%int64(len(classes))])); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var last *sched.Task
	for i := int64(0); i < tasks; i++ {
		t, err := pool.SubmitWait(ctx, noop, sched.WithClass(classes[i%int64(len(classes))]))
		if err != nil {
			return nil, err
		}
		last = t
	}
	if last != nil {
		if err := last.Wait(ctx); err != nil {
			return nil, err
		}
	}
	// Drain fully so wall time covers every dispatched task.
	for pool.Stats().Queued > 0 || pool.Stats().Running > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	sc := &perfstat.Scenario{
		Name:           name,
		Cycles:         tasks,
		WallNs:         wall.Nanoseconds(),
		NsPerCycle:     float64(wall.Nanoseconds()) / float64(tasks),
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(tasks),
		BytesPerCycle:  float64(after.TotalAlloc-before.TotalAlloc) / float64(tasks),
	}
	if sc.NsPerCycle > 0 {
		sc.CyclesPerSec = 1e9 / sc.NsPerCycle
	}
	return sc, nil
}

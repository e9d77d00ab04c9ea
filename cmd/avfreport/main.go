// Command avfreport regenerates the paper's tables and figures: the
// processor configuration (Table 1), the sample-size analysis (Figure 1),
// error-propagation-latency CDFs (Figure 2), per-application estimation
// error aggregates for the online and utilization methods (Figure 3),
// detailed AVF time series for mesa and ammp (Figure 4), and last-value
// prediction errors (Figure 5).
//
// Usage:
//
//	avfreport [-scale quick|standard|paper] [-seed N] [-parallel N] [-only table1|fig1|...|fig5]
//
// At -scale paper the run matches the paper's M = N = 1000 over 100–200
// one-million-cycle intervals per benchmark and takes hours; -scale
// standard (default) finishes in a few minutes with the same qualitative
// results. Benchmark-grid artifacts (fig3, fig4, fig5) fan their
// independent simulations out over -parallel workers (default: all
// cores); output is byte-identical to -parallel 1 at the same seed.
//
// With -flight <path> the command instead runs one flight-recorded
// estimation of -flight-benchmark at the chosen scale and dumps the
// reconstructed error-propagation traces as NDJSON — the offline
// counterpart of avfd's GET /v1/jobs/{id}/flight.
//
// With -coverage <path> it runs one estimation of -coverage-benchmark
// with the microarchitectural telemetry collector attached and dumps
// the occupancy residency / injection coverage / confidence surface as
// NDJSON — the offline counterpart of GET /v1/jobs/{id}/coverage.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"avfsim/internal/experiment"
	"avfsim/internal/flight"
	"avfsim/internal/microtel"
	"avfsim/internal/sched"
)

func main() {
	scale := flag.String("scale", "standard", "experiment scale: quick, standard, or paper")
	seed := flag.Uint64("seed", 1, "workload seed")
	only := flag.String("only", "", "render a single artifact: table1, fig1, fig2, fig3, fig4, fig5, ablate, baselines")
	workers := flag.Int("parallel", runtime.GOMAXPROCS(0), "workers for benchmark-grid simulations (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (source for make pgo)")
	flightOut := flag.String("flight", "", "dump flight-recorder propagation traces (NDJSON) to this file and exit")
	flightBench := flag.String("flight-benchmark", "mesa", "benchmark for the -flight dump")
	coverageOut := flag.String("coverage", "", "dump microarchitectural telemetry (occupancy/coverage/confidence NDJSON) to this file and exit")
	coverageBench := flag.String("coverage-benchmark", "mesa", "benchmark for the -coverage dump")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfreport: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "avfreport: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var spec experiment.ScaleSpec
	switch *scale {
	case "quick":
		spec = experiment.Quick
	case "standard":
		spec = experiment.Standard
	case "paper":
		spec = experiment.Paper
	default:
		fmt.Fprintf(os.Stderr, "avfreport: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *flightOut != "" {
		if err := flightDump(spec, *flightBench, *seed, *flightOut); err != nil {
			fmt.Fprintf(os.Stderr, "avfreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *coverageOut != "" {
		if err := coverageDump(spec, *coverageBench, *seed, *coverageOut); err != nil {
			fmt.Fprintf(os.Stderr, "avfreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	suite := experiment.NewSuite(spec, *seed)
	if *workers > 1 {
		pool := sched.New(sched.Options{Workers: *workers, QueueCap: 64})
		defer pool.Shutdown(context.Background())
		suite.SetPool(pool)
	}
	start := time.Now()
	fmt.Printf("avfreport: scale=%s (phase scale %.2f, M=%d, N=%d, %d intervals, %d workers)\n\n",
		spec.Name, spec.Scale, spec.M, spec.N, spec.Intervals, *workers)

	var err error
	switch *only {
	case "":
		err = suite.All(os.Stdout)
	case "table1":
		err = suite.Table1(os.Stdout)
	case "fig1":
		err = suite.Figure1(os.Stdout)
	case "fig2":
		err = suite.Figure2(os.Stdout)
	case "fig3":
		err = suite.Figure3(os.Stdout)
	case "fig4":
		err = suite.Figure4(os.Stdout)
	case "fig5":
		err = suite.Figure5(os.Stdout)
	case "ablate":
		err = suite.Ablations(os.Stdout)
	case "baselines":
		err = suite.Baselines(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "avfreport: unknown artifact %q\n", *only)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "avfreport: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\navfreport: done in %v\n", time.Since(start).Round(time.Millisecond))
}

// flightDump runs one flight-recorded estimation and writes the
// reconstructed propagation traces as NDJSON.
func flightDump(spec experiment.ScaleSpec, benchmark string, seed uint64, path string) error {
	rec := flight.New(1 << 20)
	start := time.Now()
	res, err := experiment.Run(experiment.RunConfig{
		Benchmark: benchmark,
		Scale:     spec.Scale,
		Seed:      seed,
		M:         spec.M, N: spec.N, Intervals: spec.Intervals,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	traces := rec.Traces()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := traces.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	out := traces.Outcomes()
	fmt.Printf("avfreport: %s @ %s: %d traces (%d failure, %d masked, %d pending, %d open) -> %s\n",
		benchmark, spec.Name, len(traces.Traces),
		out[flight.OutcomeFailure], out[flight.OutcomeMasked], out[flight.OutcomePending], out[flight.OutcomeOpen],
		path)
	if traces.Dropped > 0 || traces.Orphans > 0 {
		fmt.Printf("avfreport: ring dropped %d events (%d orphaned); raise the cap for lossless traces\n",
			traces.Dropped, traces.Orphans)
	}
	fmt.Printf("avfreport: %d retired in %v\n", res.Stats.Retired, time.Since(start).Round(time.Millisecond))
	return nil
}

// coverageDump runs one estimation with the microarchitectural
// telemetry collector attached and writes the occupancy / coverage /
// confidence surface as NDJSON.
func coverageDump(spec experiment.ScaleSpec, benchmark string, seed uint64, path string) error {
	mt := microtel.New(microtel.Config{})
	start := time.Now()
	res, err := experiment.Run(experiment.RunConfig{
		Benchmark: benchmark,
		Scale:     spec.Scale,
		Seed:      seed,
		M:         spec.M, N: spec.N, Intervals: spec.Intervals,
		Observer: mt,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mt.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	snap := mt.Snapshot()
	fmt.Printf("avfreport: %s @ %s: %d concluded (%d failure, %d masked, %d pending), %d occupancy samples -> %s\n",
		benchmark, spec.Name, snap.Concluded,
		snap.Totals.Failures, snap.Totals.Masked, snap.Totals.Pending, snap.Samples, path)
	for _, ss := range snap.Structures {
		ci := ""
		if ss.Confidence != nil {
			ci = fmt.Sprintf("  avf=%.4f ci=[%.4f, %.4f]", ss.AVF, ss.Confidence.Lo, ss.Confidence.Hi)
		}
		fmt.Printf("avfreport: %-6s coverage %3d/%3d (%.0f%%)  mean occupancy %.2f/%d%s\n",
			ss.Structure, ss.Covered, ss.Entries, ss.CoverageRatio*100,
			ss.OccupancyMean, ss.Entries, ci)
	}
	fmt.Printf("avfreport: %d retired in %v\n", res.Stats.Retired, time.Since(start).Round(time.Millisecond))
	return nil
}

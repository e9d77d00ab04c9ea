// Package avfsim's root benchmarks regenerate each of the paper's tables
// and figures at a reduced scale, one benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// The shapes these produce (who wins, by what factor) mirror the paper;
// absolute AVF values differ because the workloads are synthetic stand-ins
// for SPEC CPU2000 (see DESIGN.md §2). cmd/avfreport renders the same
// artifacts as text tables, up to full paper scale.
package avfsim

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/predict"
	"avfsim/internal/sched"
	"avfsim/internal/stats"
	"avfsim/internal/workload"
)

// benchSpec trims the Quick scale further so the full bench suite stays
// in CI territory.
var benchSpec = experiment.ScaleSpec{
	Name: "bench", Scale: 0.02, M: 1000, N: 100,
	Intervals: 4, DetailIntervals: 6, Fig2M: 2000, Fig2Samples: 500,
}

// BenchmarkTable1Simulator measures the timing simulator's cycle
// throughput at the Table 1 (POWER4-like) configuration.
func BenchmarkTable1Simulator(b *testing.B) {
	prof, err := workload.ByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, prof.MustSource(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
	b.ReportMetric(float64(p.Retired())/float64(p.Cycle()), "ipc")
}

// BenchmarkFigure1SampleSize measures the sample-size analysis behind
// Figure 1 (N = AVF(1-AVF)/sigma^2 curves).
func BenchmarkFigure1SampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sigma := range stats.Figure1Sigmas {
			curve := stats.SampleSizeCurve(sigma, 100)
			if curve[50].N == 0 {
				b.Fatal("degenerate curve")
			}
		}
	}
}

// BenchmarkFigure2PropagationCDF regenerates the error-propagation-latency
// CDFs for the register file and FXU on bzip2.
func BenchmarkFigure2PropagationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchSpec, 1)
		data, err := s.Figure2Data()
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != 2 || data[0].Samples == 0 {
			b.Fatal("no CDF data")
		}
	}
}

// BenchmarkFigure3ErrorStats regenerates one column of Figure 3: the
// online and utilization error aggregates against the reference for one
// application across all four structures.
func BenchmarkFigure3ErrorStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.RunConfig{
			Benchmark: "mesa", Scale: benchSpec.Scale, Seed: 1,
			M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.Intervals,
		})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, ss := range res.Series {
			if m := stats.Mean(stats.AbsErrors(ss.Online, ss.Reference)); m > worst {
				worst = m
			}
		}
		b.ReportMetric(worst, "worst-mean-abs-err")
	}
}

// BenchmarkFigure4Timeseries regenerates a detailed per-interval AVF time
// series (the Figure 4 view) for one application.
func BenchmarkFigure4Timeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.RunConfig{
			Benchmark: "ammp", Scale: benchSpec.Scale, Seed: 1,
			M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.DetailIntervals,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.SeriesFor(pipeline.StructIQ).Online) != benchSpec.DetailIntervals {
			b.Fatal("short series")
		}
	}
}

// BenchmarkFigure5Prediction regenerates the last-value prediction errors
// for one application across the four structures.
func BenchmarkFigure5Prediction(b *testing.B) {
	res, err := experiment.Run(experiment.RunConfig{
		Benchmark: "bzip2", Scale: benchSpec.Scale, Seed: 1,
		M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.DetailIntervals,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ss := range res.Series {
			ev, err := predict.Evaluate(predict.NewLastValue(), ss.Online, ss.Reference)
			if err != nil {
				b.Fatal(err)
			}
			_ = ev
		}
	}
}

// parallelGridConfigs is the benchmark × seed grid for
// BenchmarkParallelGrid: every workload once, at the bench scale.
func parallelGridConfigs() []experiment.RunConfig {
	var cfgs []experiment.RunConfig
	for _, bench := range workload.Names() {
		cfgs = append(cfgs, experiment.RunConfig{
			Benchmark: bench, Scale: benchSpec.Scale, Seed: 1,
			M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.Intervals,
		})
	}
	return cfgs
}

// BenchmarkParallelGrid compares the serial benchmark grid against the
// sched.Pool fan-out used by avfreport -fig3/-fig5 and cmd/avfd. The
// grid is embarrassingly parallel (independent simulations), so the
// pooled wall-time approaches serial/worker-count on multi-core hosts;
// see EXPERIMENTS.md for measured numbers.
func BenchmarkParallelGrid(b *testing.B) {
	cfgs := parallelGridConfigs()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rc := range cfgs {
				if _, err := experiment.Run(rc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("pool-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool := sched.New(sched.Options{Workers: workers, QueueCap: len(cfgs)})
				if _, err := experiment.RunGrid(context.Background(), pool, cfgs); err != nil {
					b.Fatal(err)
				}
				pool.Shutdown(context.Background())
			}
		})
	}
}

// tracerObserver attaches an injection tracer to the estimator, the way
// avfd's per-job observer does.
type tracerObserver struct {
	core.NopObserver
	tr *obs.JobTracer
}

func (o tracerObserver) RecordInjection(rec obs.Injection) { o.tr.RecordInjection(rec) }

// obsBenchRun drives the Table 1 simulator plus estimator for a fixed
// cycle count, with or without an observer attached, and returns the
// estimator so callers can keep it live.
func obsBenchRun(b *testing.B, cycles int, o core.Observer) *core.Estimator {
	b.Helper()
	prof, err := workload.ByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, prof.MustSource(1))
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEstimator(p, core.Options{M: 1000, N: 100, Observer: o})
	if err != nil {
		b.Fatal(err)
	}
	e.Attach()
	for i := 0; i < cycles; i++ {
		p.Step()
		e.Tick()
	}
	return e
}

// BenchmarkEstimatorObs compares the estimator hot loop with
// observability disabled (nil Observer — the default) against the full avfd
// production path (JobTracer forwarding to per-structure Prometheus
// counters). The "off" case is the one that must not regress vs a tree
// without internal/obs; see EXPERIMENTS.md for recorded numbers.
func BenchmarkEstimatorObs(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		obsBenchRun(b, b.N, nil)
	})
	b.Run("on", func(b *testing.B) {
		reg := obs.NewRegistry()
		tr := obs.NewJobTracer(obs.NewInjectionCounters(reg), 0)
		obsBenchRun(b, b.N, tracerObserver{tr: tr})
	})
}

// TestObsOverheadUnderFivePercent is the regression gate for the
// tentpole's "near-zero overhead" requirement: the full tracing path
// must cost < 5% over the untraced estimator. Shared hosts change speed
// from one millisecond to the next, so timing whole runs one after the
// other compares two different machines. Instead an untraced and a
// traced simulation of the same trace advance side by side: each pair
// times both over the same 1000 cycles (one injection interval), in
// alternating order, and the gate reads the median of the per-pair
// on/off ratios, which a pair hit by a stall cannot move.
func TestObsOverheadUnderFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies atomic-op cost; the 5% budget is for production builds")
	}
	const (
		m     = 1000
		pairs = 300
	)
	type sim struct {
		p *pipeline.Pipeline
		e *core.Estimator
	}
	newSim := func(o core.Observer) sim {
		prof, err := workload.ByName("mesa")
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.Default()
		p, err := pipeline.New(&cfg, prof.MustSource(1))
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEstimator(p, core.Options{M: m, N: 100, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		e.Attach()
		return sim{p, e}
	}
	advance := func(s sim) time.Duration {
		start := time.Now()
		for i := 0; i < m; i++ {
			s.p.Step()
			s.e.Tick()
		}
		return time.Since(start)
	}
	off := newSim(nil)
	on := newSim(tracerObserver{tr: obs.NewJobTracer(obs.NewInjectionCounters(obs.NewRegistry()), 0)})
	ratios := make([]float64, pairs)
	for i := range ratios {
		var dOff, dOn time.Duration
		if i%2 == 0 {
			dOff, dOn = advance(off), advance(on)
		} else {
			dOn, dOff = advance(on), advance(off)
		}
		ratios[i] = float64(dOn) / float64(dOff)
	}
	sort.Float64s(ratios)
	overhead := ratios[pairs/2] - 1
	t.Logf("on/off ratio over %d pairs of %d cycles: p10 %.4f, median %.4f, p90 %.4f",
		pairs, m, ratios[pairs/10], ratios[pairs/2], ratios[pairs*9/10])
	if overhead > 0.05 {
		t.Errorf("observability overhead %.2f%% (median paired ratio) exceeds 5%% budget", overhead*100)
	}
}

package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// sinkCollector is an Observer that retains every lifecycle record the
// estimator emits.
type sinkCollector struct {
	NopObserver
	recs []obs.Injection
}

func (s *sinkCollector) RecordInjection(rec obs.Injection) { s.recs = append(s.recs, rec) }

// funcObserver hands the Boundary and Interval events it has a
// function for to that function.
type funcObserver struct {
	NopObserver
	boundary func(cycle int64)
	interval func(est Estimate, wallStart, wallEnd time.Time)
}

func (o funcObserver) Boundary(cycle int64) {
	if o.boundary != nil {
		o.boundary(cycle)
	}
}

func (o funcObserver) Interval(est Estimate, wallStart, wallEnd time.Time) {
	if o.interval != nil {
		o.interval(est, wallStart, wallEnd)
	}
}

// TestSinkReconcilesWithEstimates drives a full run with an observer
// retaining injection records and
// checks the lifecycle records are the estimates, disaggregated: for
// every complete interval of every structure there are exactly N
// records whose failure count equals the estimate's Failures — the
// property the avfd trace endpoint's clients depend on.
func TestSinkReconcilesWithEstimates(t *testing.T) {
	p := newPipe(t, &loopTrace{})
	sink := &sinkCollector{}
	e, err := NewEstimator(p, Options{M: 20, N: 10, Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	drive(p, e, 20*10*6)

	type cell struct {
		s        pipeline.Structure
		interval int
	}
	count := map[cell]int{}
	failures := map[cell]int{}
	for _, rec := range sink.recs {
		c := cell{rec.Structure, rec.Interval}
		count[c]++
		if rec.Outcome == obs.OutcomeFailure {
			failures[c]++
		}
		if rec.ConcludeCycle-rec.InjectCycle < 20 {
			t.Fatalf("record propagated %d cycles, want >= M=20: %+v",
				rec.ConcludeCycle-rec.InjectCycle, rec)
		}
		if rec.Outcome == obs.OutcomeFailure {
			if rec.Latency < 0 || rec.Latency > rec.ConcludeCycle-rec.InjectCycle {
				t.Fatalf("implausible latency: %+v", rec)
			}
			if !rec.FailClass.IsFailurePoint() {
				t.Fatalf("failure attributed to non-failure-point class %v", rec.FailClass)
			}
		}
	}
	total := 0
	for _, s := range e.Structures() {
		ests := e.Estimates(s)
		if len(ests) == 0 {
			t.Fatalf("no estimates for %v", s)
		}
		for _, est := range ests {
			c := cell{s, est.Interval}
			if count[c] != est.Injections {
				t.Fatalf("%v interval %d: %d records, estimate says %d injections",
					s, est.Interval, count[c], est.Injections)
			}
			if failures[c] != est.Failures {
				t.Fatalf("%v interval %d: %d failure records, estimate says %d failures",
					s, est.Interval, failures[c], est.Failures)
			}
			total += count[c]
		}
	}
	// Only records of the partial trailing interval may remain.
	if rest := len(sink.recs) - total; rest < 0 || rest > 10*len(e.Structures()) {
		t.Fatalf("%d records outside complete intervals", rest)
	}
}

// TestSinkOutcomeClassification checks the three-way outcome split on
// the always-ACE loop workload: FXU injections during busy cycles fail
// (every ALU result is stored), and the masked/pending split agrees
// with the residual error-bit population.
func TestSinkOutcomeClassification(t *testing.T) {
	p := newPipe(t, &loopTrace{})
	sink := &sinkCollector{}
	e, err := NewEstimator(p, Options{
		M: 20, N: 100, Observer: sink,
		Structures: []pipeline.Structure{pipeline.StructFXU},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	drive(p, e, 10_000)

	var n [obs.NumOutcomes]int
	for _, rec := range sink.recs {
		n[rec.Outcome]++
		if rec.Outcome == obs.OutcomeMasked && rec.ErrBits != 0 {
			t.Fatalf("masked record with live error bits: %+v", rec)
		}
		if rec.Outcome == obs.OutcomePending && rec.ErrBits == 0 {
			t.Fatalf("pending record without live error bits: %+v", rec)
		}
	}
	if n[obs.OutcomeFailure] == 0 {
		t.Fatal("ACE-heavy loop produced no failure outcomes")
	}
	if n[obs.OutcomeFailure]+n[obs.OutcomeMasked]+n[obs.OutcomePending] != len(sink.recs) {
		t.Fatal("outcomes do not partition the records")
	}
}

// TestTickAllocatesNothingObsDisabled is the regression guard for the
// estimator hot path: with no Observer and no RecordLatency, driving the
// pipeline + estimator must allocate no more than driving the bare
// pipeline — Tick, conclude, inject, and HandleFailureMask stay
// allocation-free. (The only estimator allocations are the per-interval
// Estimate appends, excluded here by stopping short of an interval
// boundary.)
func TestTickAllocatesNothingObsDisabled(t *testing.T) {
	const cycles = 5000 // M*N = 100k: no interval boundary, many injections

	pipeOnly := func() {
		p := newPipe(t, &loopTrace{})
		for i := 0; i < cycles; i++ {
			p.Step()
		}
	}
	withEstimator := func() {
		p := newPipe(t, &loopTrace{})
		e, err := NewEstimator(p, Options{M: 100, N: 1000})
		if err != nil {
			t.Fatal(err)
		}
		e.Attach()
		for i := 0; i < cycles; i++ {
			p.Step()
			e.Tick()
		}
	}

	allocs := func(fn func()) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// Warm both paths once (lazy runtime structures, map growth).
	pipeOnly()
	withEstimator()

	base := allocs(pipeOnly)
	est := allocs(withEstimator)
	// The estimator itself allocates its fixed setup (states, slices);
	// bound the delta by a small constant that a per-Tick allocation
	// (5000 ticks) would blow through immediately.
	if est > base+64 {
		t.Fatalf("estimator path allocated %d objects vs %d bare — per-Tick allocation regression", est, base)
	}
}

// TestObserverAllocatesNothing is the differential guard for an attached
// observer: a run with a no-op Observer allocates no more than the same
// run without one, for the lockstep and the per-lane schedule. N is
// small, so intervals complete and the Interval path (wall-clock reads
// included) is exercised, not only RecordInjection and Boundary.
func TestObserverAllocatesNothing(t *testing.T) {
	const cycles = 5000 // M*N = 1000: five intervals per structure
	for _, lanes := range []int{0, 64} {
		run := func(o Observer) func() {
			return func() {
				p := newPipe(t, &loopTrace{})
				e, err := NewEstimator(p, Options{M: 100, N: 10, Lanes: lanes, Observer: o})
				if err != nil {
					t.Fatal(err)
				}
				e.Attach()
				for i := 0; i < cycles; i++ {
					p.Step()
					e.Tick()
				}
				if len(e.Estimates(e.Structures()[0])) == 0 {
					t.Fatal("no interval completed")
				}
			}
		}
		// The minimum of a few measurements, so an allocation made by
		// another goroutine cannot fail the comparison.
		allocs := func(fn func()) uint64 {
			best := uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				fn()
				runtime.ReadMemStats(&after)
				best = min(best, after.Mallocs-before.Mallocs)
			}
			return best
		}
		bare, observed := run(nil), run(NopObserver{})
		bare()
		observed()
		if a, b := allocs(observed), allocs(bare); a > b {
			t.Errorf("lanes=%d: run with an observer allocated %d objects vs %d without", lanes, a, b)
		}
	}
}

package core

import (
	"runtime"
	"testing"

	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// TestLaneOptionsValidation: lane counts out of range, below the
// structure count, or combined with Multiplex are rejected.
func TestLaneOptionsValidation(t *testing.T) {
	p := newPipe(t, trace64())
	bad := []Options{
		{M: 10, N: 10, Lanes: pipeline.MaxLanes + 1},
		{M: 10, N: 10, Lanes: 2}, // 4 default structures need >= 4 lanes
		{M: 10, N: 10, Lanes: 8, Multiplex: true},
	}
	for i, o := range bad {
		if _, err := NewEstimator(p, o); err == nil {
			t.Errorf("case %d: invalid lane options accepted: %+v", i, o)
		}
	}
	if _, err := NewEstimator(p, Options{M: 10, N: 10, Lanes: 1}); err != nil {
		t.Errorf("Lanes=1 (classic path) rejected: %v", err)
	}
	if _, err := NewEstimator(p, Options{M: 10, N: 10, Lanes: pipeline.MaxLanes}); err != nil {
		t.Errorf("Lanes=MaxLanes rejected: %v", err)
	}
}

func trace64() *loopTrace { return &loopTrace{} }

// TestLaneSinkReconcilesWithEstimates is the lane-mode version of the
// sink-reconciliation invariant: for every complete interval of every
// structure there are exactly Injections records whose failure count
// equals the estimate's Failures, each record tagged with a valid lane
// whose pool belongs to the record's structure.
func TestLaneSinkReconcilesWithEstimates(t *testing.T) {
	const lanes = 16
	p := newPipe(t, &loopTrace{})
	sink := &sinkCollector{}
	e, err := NewEstimator(p, Options{M: 20, N: 10, Lanes: lanes, Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	drive(p, e, 20*10*6)

	structs := e.Structures()
	type cell struct {
		s        pipeline.Structure
		interval int
	}
	count := map[cell]int{}
	failures := map[cell]int{}
	for _, rec := range sink.recs {
		if rec.Lane < 0 || rec.Lane >= lanes {
			t.Fatalf("record lane %d out of range [0, %d)", rec.Lane, lanes)
		}
		// Lane pools are static round-robin: lane i belongs to
		// structures[i % len(structures)].
		if want := structs[rec.Lane%len(structs)]; rec.Structure != want {
			t.Fatalf("lane %d record charged %v, pool owns %v", rec.Lane, rec.Structure, want)
		}
		c := cell{rec.Structure, rec.Interval}
		count[c]++
		if rec.Outcome == obs.OutcomeFailure {
			failures[c]++
			if rec.Latency < 0 || rec.Latency > rec.ConcludeCycle-rec.InjectCycle {
				t.Fatalf("implausible latency: %+v", rec)
			}
		}
		if rec.ConcludeCycle-rec.InjectCycle < 20 {
			t.Fatalf("record propagated %d cycles, want >= M=20: %+v",
				rec.ConcludeCycle-rec.InjectCycle, rec)
		}
	}
	sawEstimates := false
	for _, s := range structs {
		for _, est := range e.Estimates(s) {
			sawEstimates = true
			c := cell{s, est.Interval}
			if count[c] != est.Injections {
				t.Fatalf("%v interval %d: %d records, estimate says %d injections",
					s, est.Interval, count[c], est.Injections)
			}
			if failures[c] != est.Failures {
				t.Fatalf("%v interval %d: %d failure records, estimate says %d failures",
					s, est.Interval, failures[c], est.Failures)
			}
		}
	}
	if !sawEstimates {
		t.Fatal("lane run produced no estimates")
	}
	if got := e.ConcludedInjections(); got != int64(len(sink.recs)) {
		t.Fatalf("ConcludedInjections %d != %d sink records", got, len(sink.recs))
	}
}

// TestLaneFailureAtConclusionCycle: a failure retiring in the very cycle
// the lane's window expires is still charged to that window — the
// pipeline's retire hooks run inside Step, Tick concludes after, so the
// ordering is deterministic. The failure's record carries latency equal
// to the full window.
func TestLaneFailureAtConclusionCycle(t *testing.T) {
	p := newPipe(t, &loopTrace{})
	sink := &sinkCollector{}
	e, err := NewEstimator(p, Options{
		M: 50, N: 1000, Lanes: 2,
		Structures: []pipeline.Structure{pipeline.StructReg},
		Observer:   sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive by hand. The first Tick injects both lanes.
	p.Step()
	e.Tick()
	lane0 := &e.lanes[0]
	if lane0.injectedAt < 0 {
		t.Fatal("lane 0 not injected on first Tick")
	}
	due := lane0.nextAt
	// Step (without the estimator's hooks interfering: none are
	// attached, so no organic failures arrive) until the cycle the lane
	// concludes, then deliver a failure "retiring" in that same cycle
	// before Tick runs — exactly the interleaving Step produces when a
	// failure-point retirement and the M-expiry share a cycle.
	for p.Cycle() < due {
		p.Step()
	}
	e.HandleFailureMask(pipeline.LaneBit(0), 1234, p.Cycle(), 3 /* some class */)
	if !lane0.failed {
		t.Fatal("failure at conclusion cycle not attributed to the live lane")
	}
	e.Tick()
	if lane0.injectedAt != p.Cycle() {
		t.Fatal("lane 0 not concluded and recycled at its due cycle")
	}
	var rec *obs.Injection
	for i := range sink.recs {
		if sink.recs[i].Lane == 0 {
			rec = &sink.recs[i]
			break
		}
	}
	if rec == nil {
		t.Fatal("no lifecycle record for lane 0")
	}
	if rec.Outcome != obs.OutcomeFailure {
		t.Fatalf("same-cycle failure recorded as %v, want failure", rec.Outcome)
	}
	if rec.Latency != rec.ConcludeCycle-rec.InjectCycle {
		t.Fatalf("latency %d != full window %d", rec.Latency, rec.ConcludeCycle-rec.InjectCycle)
	}
	// The recycled lane starts clean.
	if lane0.failed {
		t.Fatal("recycled lane inherited the failed flag")
	}
}

// TestLaneRandomScheduleKeepsOccupancyFull: under the per-lane random
// schedule (the lanes>1-only gap fix), every lane is live at all times —
// a lane reinjects the moment it concludes, so occupancy never drains
// between injections.
func TestLaneRandomScheduleKeepsOccupancyFull(t *testing.T) {
	const lanes = 8
	p := newPipe(t, &loopTrace{})
	e, err := NewEstimator(p, Options{
		M: 20, N: 50, Lanes: lanes, RandomSchedule: true, Seed: 9,
		Structures: []pipeline.Structure{pipeline.StructReg, pipeline.StructIQ},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	distinctDue := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		p.Step()
		e.Tick()
		for l := range e.lanes {
			ln := &e.lanes[l]
			if ln.injectedAt < 0 {
				t.Fatalf("cycle %d: lane %d idle — occupancy drained", p.Cycle(), l)
			}
			distinctDue[ln.nextAt] = true
		}
	}
	// Per-lane draws must desynchronize the pools: far more distinct
	// conclusion cycles than a single global schedule would produce.
	if len(distinctDue) < 50 {
		t.Fatalf("only %d distinct conclusion cycles across 2000 — schedule is not per-lane", len(distinctDue))
	}
}

// TestLaneTickAllocatesNothingObsDisabled extends the zero-alloc guard
// to the per-lane schedule policy: with no Observer, driving pipeline + 64-lane estimator
// allocates no more than driving the bare pipeline.
func TestLaneTickAllocatesNothingObsDisabled(t *testing.T) {
	const cycles = 5000 // N=1000 per pool: no interval boundary in range

	pipeOnly := func() {
		p := newPipe(t, &loopTrace{})
		for i := 0; i < cycles; i++ {
			p.Step()
		}
	}
	withLanes := func() {
		p := newPipe(t, &loopTrace{})
		e, err := NewEstimator(p, Options{M: 100, N: 1000, Lanes: 64})
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
	pipeOnly()
	withLanes()

	base := allocs(pipeOnly)
	lane := allocs(withLanes)
	if lane > base+64 {
		t.Fatalf("lane engine allocated %d objects vs %d bare — per-Tick allocation regression", lane, base)
	}
}

package core

import (
	"math"
	"math/bits"
	"time"

	"avfsim/internal/isa"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// This file is the injection engine. Each lane of the table is one
// Algorithm 1 experiment riding one error bit: it injects into its
// structure, waits, concludes, and injects again. Error propagation is
// purely bitwise — OR on read, overwrite on write, AND-NOT on clear — so
// lanes never interact; the only lane-aware bookkeeping is here:
// retire-time failure attribution (HandleFailureMask resolves a retired
// mask's set bits to lanes) and the boundary step of Tick.
//
// NewEstimator fills the table one of three ways:
//   - classic: one lane per structure, riding the structure's plane bit;
//   - Multiplex: the same lanes, but only one is live at a time, the
//     boundary reinjecting the lanes in turn;
//   - Lanes > 1: lane i rides bit i and injects into Structures[i % len].
//
// The schedule is a policy, not a separate path. Under the lockstep
// policy (the first two) Tick draws one gap per boundary, after all the
// entry draws, and every live lane concludes at the next boundary. Under
// the per-lane policy (Lanes > 1) each lane draws its own gap right after
// its entry draw, which keeps a 64-lane machine from emptying and
// refilling in lockstep; under the fixed schedule every gap is M either
// way, so per-injection statistics match the classic engine's.

// laneState is one lane: the structure it injects into and its live
// experiment.
type laneState struct {
	st         *structState
	live       bool  // an injection is live
	failed     bool  // the live injection already reached a failure point
	entry      int   // entry/unit index of the live injection
	injectedAt int64 // cycle of the live injection
	// nextAt is the cycle the lane concludes, then reinjects. The
	// lockstep policy never moves it from the cycle the lane was added,
	// so every live lane is due at each boundary.
	nextAt int64

	// Failure details for the lifecycle record (valid while failed,
	// written only when an Observer is attached).
	failCycle int64
	failSeq   int64
	failClass isa.Class
}

// addLane puts a lane on error bit b injecting into st, due at once.
func (e *Estimator) addLane(b int, st *structState) {
	e.lanes[b] = laneState{st: st, nextAt: e.p.Cycle()}
	e.order = append(e.order, b)
}

// HandleFailureMask is the pipeline.Hooks.OnFailureMask sink: a
// failure-point instruction retired carrying the given error bits. Each
// set bit is one lane's experiment; the first failure of a live injection
// counts.
func (e *Estimator) HandleFailureMask(mask pipeline.ErrMask, seq, cycle int64, class isa.Class) {
	for m := uint64(mask); m != 0; m &= m - 1 {
		ln := &e.lanes[bits.TrailingZeros64(m)]
		if !ln.live || ln.failed {
			continue
		}
		ln.failed = true
		if e.opt.RecordLatency {
			ln.st.latencies.Add(cycle - ln.injectedAt)
		}
		if e.opt.Observer != nil {
			ln.failCycle = cycle
			ln.failSeq = seq
			ln.failClass = class
		}
	}
}

// Tick advances Algorithm 1; call it after every pipeline.Step. Off a
// boundary it costs one comparison. At a boundary it concludes the due
// lanes — one fused population scan (only for an Observer or a flight
// recorder), one conclude and one clear delimiter per lane, one fused
// clear — and then reinjects.
func (e *Estimator) Tick() {
	cycle := e.p.Cycle()
	if cycle < e.nextEvent {
		return
	}
	var due pipeline.ErrMask
	for _, b := range e.order {
		if ln := &e.lanes[b]; ln.live && ln.nextAt <= cycle {
			due |= pipeline.LaneBit(b)
		}
	}
	recOn := e.p.RecorderAttached()
	if due != 0 && (e.opt.Observer != nil || recOn) {
		e.p.PlanePopulations(due, &e.pops)
	}
	for _, b := range e.order {
		if due&pipeline.LaneBit(b) != 0 {
			e.conclude(b, cycle)
			if recOn {
				e.p.EmitLaneClear(e.lanes[b].st.s, b, e.pops[b])
			}
		}
	}
	e.p.ClearPlanes(due)

	// Reinject after the wipe, so the fresh bits survive it.
	for i, b := range e.order {
		if e.lanes[b].nextAt <= cycle && (!e.opt.Multiplex || i == e.muxTurn) {
			e.inject(b, cycle)
		}
	}
	if e.opt.Multiplex {
		e.muxTurn = (e.muxTurn + 1) % len(e.order)
	}
	if e.perLane {
		e.nextEvent = math.MaxInt64
		for _, b := range e.order {
			e.nextEvent = min(e.nextEvent, e.lanes[b].nextAt)
		}
	} else {
		e.nextEvent = cycle + e.gap()
	}
	if e.opt.Observer != nil {
		e.opt.Observer.Boundary(cycle)
	}
}

// gap draws the wait before the next conclusion: M, or uniform in
// [1, 2M) under RandomSchedule.
func (e *Estimator) gap() int64 {
	if e.opt.RandomSchedule {
		return 1 + int64(e.rand()%uint64(2*e.opt.M))
	}
	return e.opt.M
}

// conclude finishes lane b's live injection: charge its structure's
// counters, emit the lifecycle record, and emit the structure's estimate
// once N injections have concluded. The record's outcome is failure if a
// failure point retired with the bit, otherwise masked (no live bits:
// execution discarded the error) or pending (bits still live at
// M-expiry, the Section 4 undercount).
func (e *Estimator) conclude(b int, cycle int64) {
	ln := &e.lanes[b]
	st := ln.st
	st.injections++
	e.concluded++
	if ln.failed {
		st.failures++
	}
	if e.opt.Observer != nil {
		rec := obs.Injection{
			Structure:     st.s,
			Entry:         ln.entry,
			Interval:      st.intervalIdx,
			InjectCycle:   ln.injectedAt,
			ConcludeCycle: cycle,
			ErrBits:       e.pops[b],
			Lane:          -1,
		}
		if e.perLane {
			rec.Lane = b
		}
		switch {
		case ln.failed:
			rec.Outcome = obs.OutcomeFailure
			rec.Latency = ln.failCycle - ln.injectedAt
			rec.FailSeq = ln.failSeq
			rec.FailClass = ln.failClass
		case rec.ErrBits > 0:
			rec.Outcome = obs.OutcomePending
		default:
			rec.Outcome = obs.OutcomeMasked
		}
		e.opt.Observer.RecordInjection(rec)
	}
	ln.live, ln.failed = false, false
	if st.injections < e.opt.N {
		return
	}
	est := Estimate{
		Structure:  st.s,
		Interval:   st.intervalIdx,
		StartCycle: st.startCycle,
		EndCycle:   cycle,
		AVF:        float64(st.failures) / float64(st.injections),
		Failures:   st.failures,
		Injections: st.injections,
	}
	st.estimates = append(st.estimates, est)
	st.intervalIdx++
	st.injections = 0
	st.failures = 0
	st.startCycle = cycle
	if e.opt.Observer != nil {
		wallEnd := time.Now()
		e.opt.Observer.Interval(est, st.wallStart, wallEnd)
		st.wallStart = wallEnd
	}
}

// inject starts lane b's next experiment: pick the entry through its
// structure's shared round-robin cursor (or at random), set the lane's
// bit, and under the per-lane policy draw the lane's gap.
func (e *Estimator) inject(b int, cycle int64) {
	ln := &e.lanes[b]
	st := ln.st
	idx := st.nextEntry
	if e.opt.RandomEntry {
		idx = int(e.rand() % uint64(st.entries))
	} else if st.nextEntry++; st.nextEntry == st.entries {
		st.nextEntry = 0
	}
	e.p.Inject(st.s, idx, pipeline.LaneBit(b))
	ln.live, ln.entry, ln.injectedAt = true, idx, cycle
	if e.perLane {
		ln.nextAt = cycle + e.gap()
	}
}

// Package core implements the paper's contribution: online AVF estimation
// by emulated statistical fault injection (Algorithm 1).
//
// For each monitored structure the estimator repeatedly (1) injects an
// emulated error by setting an error bit, (2) lets the program's own
// execution propagate it for M cycles, (3) counts a potential failure if a
// load, store, or branch retires carrying the bit, (4) clears all error
// bits and injects again. After N injections the AVF estimate is
// failures/N. With the paper's M = N = 1000, one estimate is produced per
// one-million-cycle interval.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"avfsim/internal/isa"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/stats"
)

// Options configures an Estimator.
type Options struct {
	// M is the number of cycles to wait after each injection for the
	// error to (potentially) propagate to a failure point (Section 3.4;
	// the paper uses 1000).
	M int64
	// N is the number of injections per AVF estimate (Section 3.3; the
	// paper uses 1000). The estimation interval is M*N cycles.
	N int
	// Structures selects what to monitor. Defaults to the paper's four
	// (IQ, REG, FXU, FPU).
	Structures []pipeline.Structure
	// RandomEntry selects injection targets uniformly at random instead
	// of the paper's hardware-friendly round-robin (ablation).
	RandomEntry bool
	// RandomSchedule randomizes the inter-injection gap (uniform in
	// [1, 2M), mean M) instead of the paper's fixed-interval schedule
	// (ablation: Section 3.3 notes fixed intervals approximate random
	// sampling).
	RandomSchedule bool
	// Seed drives the ablation randomizations.
	Seed uint64
	// RecordLatency collects injection-to-failure latencies (Figure 2).
	RecordLatency bool
	// Observer, when non-nil, watches the run: the estimator's one hook
	// (see Observer). When nil (the default) the hot path pays one nil
	// check per boundary and never reads the clock.
	Observer Observer
	// Multiplex emulates the true hardware cost model: a single error
	// bit per value means only ONE emulated error may be live in the
	// whole machine, so injections rotate across the monitored
	// structures. Each structure then needs len(Structures)×M×N cycles
	// per estimate instead of M×N. (The simulator's default gives each
	// structure its own bit-plane, estimating all of them concurrently —
	// equivalent per-injection, 4× faster wall-clock for four
	// structures.)
	Multiplex bool
	// Lanes > 1 runs up to pipeline.MaxLanes independent experiments on
	// the same cycle loop, each on its own error-bit lane, assigned
	// round-robin to the monitored structures (lane i → Structures[i %
	// len]) and each on its own schedule. Error propagation is purely
	// bitwise, so the experiments compose without interacting, and N
	// injections complete ~Lanes/len(Structures) times faster in
	// simulated cycles. Lanes <= 1 (the default) gives each structure one
	// lane on its plane bit, all on one lockstep schedule. Incompatible
	// with Multiplex (whose point is ONE live error machine-wide).
	Lanes int
}

// Observer watches a run of Algorithm 1. The estimator calls it
// synchronously, from NewEstimator and Tick, so implementations must be
// cheap and must not block.
type Observer interface {
	// Bind is called once, by NewEstimator after defaults resolve, with
	// the pipeline, the monitored structures and Options.Lanes.
	Bind(p *pipeline.Pipeline, structures []pipeline.Structure, lanes int)
	// RecordInjection receives the lifecycle record of each concluded
	// injection.
	RecordInjection(rec obs.Injection)
	// Boundary is called at each injection boundary, after its
	// conclusions and reinjections: the cycles where the estimator
	// already runs its fused full-machine scans.
	Boundary(cycle int64)
	// Interval receives every completed per-interval estimate, for any
	// monitored structure, with the wall-clock start and end of its
	// interval. The batch accessors (Estimates, AVFSeries) hold the same
	// series.
	Interval(est Estimate, wallStart, wallEnd time.Time)
}

// NopObserver ignores every event. Embed it in an observer that needs
// only some of them.
type NopObserver struct{}

func (NopObserver) Bind(*pipeline.Pipeline, []pipeline.Structure, int) {}
func (NopObserver) RecordInjection(obs.Injection)                      {}
func (NopObserver) Boundary(int64)                                     {}
func (NopObserver) Interval(Estimate, time.Time, time.Time)            {}

// validate applies defaults and checks ranges.
func (o *Options) validate() error {
	if o.M <= 0 {
		return errors.New("core: Options.M must be positive")
	}
	if o.N <= 0 {
		return errors.New("core: Options.N must be positive")
	}
	if len(o.Structures) == 0 {
		o.Structures = append([]pipeline.Structure(nil), pipeline.PaperStructures...)
	}
	var seen [pipeline.NumStructures]bool
	for _, s := range o.Structures {
		if int(s) < 0 || int(s) >= pipeline.NumStructures {
			return fmt.Errorf("core: invalid structure %d", s)
		}
		if seen[s] {
			return fmt.Errorf("core: duplicate structure %v", s)
		}
		seen[s] = true
	}
	return ValidateLanes(o.Lanes, o.Multiplex, o.Structures)
}

// ValidateLanes checks a lane count against the Multiplex setting and the
// monitored structures (none means the paper's four): lanes lie in [0,
// pipeline.MaxLanes], and more than one lane rules out Multiplex and
// needs at least one lane per structure.
func ValidateLanes(lanes int, multiplex bool, structures []pipeline.Structure) error {
	n := len(structures)
	if n == 0 {
		n = len(pipeline.PaperStructures)
	}
	switch {
	case lanes < 0 || lanes > pipeline.MaxLanes:
		return fmt.Errorf("core: lanes %d out of range [0, %d]", lanes, pipeline.MaxLanes)
	case lanes > 1 && multiplex:
		return errors.New("core: lanes > 1 is incompatible with multiplex")
	case lanes > 1 && lanes < n:
		return fmt.Errorf("core: lanes %d < %d monitored structures (each needs at least one lane)", lanes, n)
	}
	return nil
}

// Estimate is one per-interval AVF estimate for one structure.
type Estimate struct {
	// Structure is the monitored structure this estimate belongs to.
	Structure pipeline.Structure
	// Interval is the 0-based estimation-interval index.
	Interval int
	// StartCycle and EndCycle delimit the interval.
	StartCycle, EndCycle int64
	// AVF is failures/injections.
	AVF float64
	// Failures and Injections are the raw counters.
	Failures, Injections int
}

// StdErr returns the binomial standard error of the estimate,
// sqrt(p·(1-p)/n): each interval is n independent injections each
// failing with probability ≈ AVF, so this is the sampling noise an
// estimate carries before any real workload shift — the noise floor
// downstream consumers (the drift detector) must not alarm on.
func (e Estimate) StdErr() float64 {
	if e.Injections <= 0 {
		return 0
	}
	p := e.AVF
	return math.Sqrt(p * (1 - p) / float64(e.Injections))
}

// structState is one monitored structure's Algorithm 1 counters; its
// live injections are held by the lanes that inject into it.
type structState struct {
	s       pipeline.Structure
	entries int

	nextEntry   int // round-robin cursor, shared by the structure's lanes
	injections  int
	failures    int
	intervalIdx int
	startCycle  int64
	// wallStart is the wall-clock start of the current interval,
	// maintained only when an Observer is attached.
	wallStart time.Time

	estimates []Estimate
	latencies stats.CDF
}

// Estimator drives Algorithm 1 against a pipeline. Wire it up with Attach
// (or put HandleFailureMask into your own pipeline.Hooks), then call Tick
// after every pipeline.Step or StepUntil.
type Estimator struct {
	p   *pipeline.Pipeline
	opt Options

	states [pipeline.NumStructures]*structState
	active []*structState

	// The lane table (lanes.go), indexed by error bit; order lists the
	// bits in use in the order Tick visits them.
	lanes [pipeline.MaxLanes]laneState
	order []int
	pops  [pipeline.MaxLanes]int
	// perLane selects the schedule policy: each lane draws its own gap
	// (Lanes > 1), or all lanes share one lockstep gap per boundary.
	perLane bool
	// muxTurn is the index into order of the lane receiving the next
	// injection in Multiplex mode.
	muxTurn int
	// nextEvent is the first cycle on which Tick does work.
	nextEvent int64
	rngState  uint64

	// concluded counts every concluded injection across all lanes — the
	// AVF-estimate throughput numerator avfbench reports.
	concluded int64
}

// NewEstimator builds an estimator for p and fills its lane table: with
// Lanes > 1, lane i rides bit i and injects into Structures[i % len];
// otherwise each structure gets one lane on its plane bit.
func NewEstimator(p *pipeline.Pipeline, opt Options) (*Estimator, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	e := &Estimator{p: p, opt: opt, rngState: opt.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	for _, s := range opt.Structures {
		st := &structState{s: s, entries: p.StructureEntries(s), startCycle: p.Cycle()}
		if opt.Observer != nil {
			st.wallStart = time.Now()
		}
		e.states[s] = st
		e.active = append(e.active, st)
	}
	e.perLane = opt.Lanes > 1
	if e.perLane {
		for b := 0; b < opt.Lanes; b++ {
			e.addLane(b, e.active[b%len(e.active)])
		}
	} else {
		for _, st := range e.active {
			e.addLane(int(st.s), st)
		}
	}
	p.SetLaneLayout(e.perLane)
	e.nextEvent = p.Cycle() // inject immediately on the first Tick
	if opt.Observer != nil {
		opt.Observer.Bind(p, opt.Structures, opt.Lanes)
	}
	return e, nil
}

// Attach installs the estimator's failure handler as the pipeline's hooks.
// Use HandleFailureMask directly if you need to fan hooks out to several
// consumers.
func (e *Estimator) Attach() {
	e.p.SetHooks(pipeline.Hooks{OnFailureMask: e.HandleFailureMask})
}

// HandleFailure is HandleFailureMask for the single plane bit of s, kept
// for perfbench's traced loop, which wires the structure-keyed
// pipeline.Hooks.OnFailure.
func (e *Estimator) HandleFailure(s pipeline.Structure, seq, cycle int64, class isa.Class) {
	e.HandleFailureMask(s.Bit(), seq, cycle, class)
}

func (e *Estimator) rand() uint64 {
	x := e.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// NextEvent returns the first cycle on which Tick will do work, so a
// driver may skip idle cycles up to it (see pipeline.StepUntil).
func (e *Estimator) NextEvent() int64 { return e.nextEvent }

// IntervalCycles is the length in cycles of one structure's estimation
// interval: M×N, times len(Structures) under Multiplex (one live error
// rotates across the structures). With Lanes > 1 each structure's pool of
// about Lanes/len(Structures) lanes concludes a pool's worth of
// injections per M cycles, so the smallest pool sets the pace.
func (e *Estimator) IntervalCycles() int64 {
	n := int64(e.opt.N)
	switch {
	case e.opt.Multiplex:
		n *= int64(len(e.active))
	case e.perLane:
		pool := int64(e.opt.Lanes / len(e.active))
		n = (n + pool - 1) / pool
	}
	return e.opt.M * n
}

// Estimates returns the completed per-interval estimates for s (nil if s
// is not monitored).
func (e *Estimator) Estimates(s pipeline.Structure) []Estimate {
	if st := e.states[s]; st != nil {
		return st.estimates
	}
	return nil
}

// AVFSeries returns just the AVF values of the completed estimates for s.
func (e *Estimator) AVFSeries(s pipeline.Structure) []float64 {
	ests := e.Estimates(s)
	out := make([]float64, len(ests))
	for i, est := range ests {
		out[i] = est.AVF
	}
	return out
}

// Latencies returns the recorded injection-to-failure latency distribution
// for s (empty unless Options.RecordLatency).
func (e *Estimator) Latencies(s pipeline.Structure) *stats.CDF {
	if st := e.states[s]; st != nil {
		return &st.latencies
	}
	return &stats.CDF{}
}

// PendingInjections reports how many injections of the current (partial)
// interval have completed for s — useful for progress reporting.
func (e *Estimator) PendingInjections(s pipeline.Structure) int {
	if st := e.states[s]; st != nil {
		return st.injections
	}
	return 0
}

// ConcludedInjections returns the total number of injections concluded
// so far across all lanes — the numerator of the
// AVF-estimate throughput metric (injections per wall-second) avfbench
// tracks across lane counts.
func (e *Estimator) ConcludedInjections() int64 { return e.concluded }

// Structures returns the monitored structures.
func (e *Estimator) Structures() []pipeline.Structure {
	out := make([]pipeline.Structure, len(e.active))
	for i, st := range e.active {
		out[i] = st.s
	}
	return out
}

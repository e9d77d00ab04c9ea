package core

import (
	"testing"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
	"avfsim/internal/trace"
)

// loopTrace builds an endless ALU+store loop where every ALU result is
// stored: every value is ACE, so injected register errors on live values
// always fail.
type loopTrace struct{ i int }

func (l *loopTrace) Next() (isa.Inst, bool) {
	pc := uint64(0x1000 + 4*(l.i%32))
	var in isa.Inst
	if l.i%2 == 0 {
		in = isa.Inst{PC: pc, Class: isa.ClassIntALU,
			Dst: isa.IntReg(5 + (l.i/2)%8), Src1: isa.IntReg(1), Src2: isa.RegNone}
	} else {
		in = isa.Inst{PC: pc, Class: isa.ClassStore, Dst: isa.RegNone,
			Src1: isa.IntReg(5 + (l.i/2)%8), Src2: isa.IntReg(1), Addr: uint64(0x100 + 8*(l.i%64))}
	}
	l.i++
	return in, true
}

func newPipe(t *testing.T, src trace.Source) *pipeline.Pipeline {
	t.Helper()
	cfg := config.Default()
	p, err := pipeline.New(&cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func drive(p *pipeline.Pipeline, e *Estimator, cycles int64) {
	for i := int64(0); i < cycles; i++ {
		if !p.Step() {
			return
		}
		e.Tick()
	}
}

func TestOptionsValidation(t *testing.T) {
	p := newPipe(t, trace.NewSliceSource(nil))
	bad := []Options{
		{M: 0, N: 10},
		{M: 10, N: 0},
		{M: -5, N: 10},
		{M: 10, N: 10, Structures: []pipeline.Structure{pipeline.Structure(200)}},
		{M: 10, N: 10, Structures: []pipeline.Structure{pipeline.StructIQ, pipeline.StructIQ}},
	}
	for i, o := range bad {
		if _, err := NewEstimator(p, o); err == nil {
			t.Errorf("options %d accepted", i)
		}
	}
	e, err := NewEstimator(p, Options{M: 10, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.Structures()); got != len(pipeline.PaperStructures) {
		t.Errorf("default structures = %d", got)
	}
}

func TestEstimateCadence(t *testing.T) {
	p := newPipe(t, &loopTrace{})
	e, err := NewEstimator(p, Options{M: 10, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	// One estimate per M*N = 50 cycles; run 500 cycles -> ~10 estimates.
	drive(p, e, 500)
	for _, s := range e.Structures() {
		got := len(e.Estimates(s))
		if got < 9 || got > 10 {
			t.Errorf("%v: %d estimates after 500 cycles with M*N=50", s, got)
		}
	}
	ests := e.Estimates(pipeline.StructReg)
	for i, est := range ests {
		if est.Interval != i {
			t.Errorf("estimate %d has interval %d", i, est.Interval)
		}
		if est.Injections != 5 {
			t.Errorf("estimate %d has %d injections, want 5", i, est.Injections)
		}
		if est.AVF < 0 || est.AVF > 1 {
			t.Errorf("estimate %d AVF = %v", i, est.AVF)
		}
		if est.EndCycle <= est.StartCycle {
			t.Errorf("estimate %d has empty cycle range", i)
		}
	}
}

func TestAVFBoundsOnRealWorkload(t *testing.T) {
	g := trace.MustNewGenerator(trace.Params{
		Seed: 5, Blocks: 64, BlockLen: 7,
		Mix:         trace.Mix{IntALU: 0.4, FPAdd: 0.12, FPMul: 0.08, Load: 0.25, Store: 0.13, Nop: 0.02},
		DepDistMean: 4, DeadFrac: 0.15, WorkingSet: 1 << 18,
		SeqFrac: 0.6, TakenBias: 0.6, BiasedFrac: 0.8,
		PCBase: 0x10000, DataBase: 0x1000000,
	})
	p := newPipe(t, g)
	e, _ := NewEstimator(p, Options{M: 200, N: 50})
	e.Attach()
	drive(p, e, 100_000)
	for _, s := range e.Structures() {
		series := e.AVFSeries(s)
		if len(series) == 0 {
			t.Errorf("%v: no estimates", s)
		}
		for i, v := range series {
			if v < 0 || v > 1 {
				t.Errorf("%v estimate %d = %v out of range", s, i, v)
			}
		}
	}
}

func TestDenseACEStreamYieldsHighLogicAVF(t *testing.T) {
	// In the ALU+store loop, every ALU op's result is stored, so an FXU
	// injection during a busy cycle always fails. AVF should be high.
	p := newPipe(t, &loopTrace{})
	e, _ := NewEstimator(p, Options{M: 20, N: 100,
		Structures: []pipeline.Structure{pipeline.StructFXU}})
	e.Attach()
	drive(p, e, 10_000)
	series := e.AVFSeries(pipeline.StructFXU)
	if len(series) == 0 {
		t.Fatal("no estimates")
	}
	// Skip the cold-start interval; steady state should be busy.
	last := series[len(series)-1]
	if last < 0.3 {
		t.Errorf("dense ACE stream FXU AVF = %v, expected high", last)
	}
}

func TestIdleMachineZeroAVF(t *testing.T) {
	// A nop-only stream: no values, no failure points -> AVF 0 for all.
	nops := make([]isa.Inst, 5000)
	for i := range nops {
		nops[i] = isa.Inst{PC: uint64(0x1000 + 4*(i%16)), Class: isa.ClassNop,
			Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	}
	p := newPipe(t, trace.NewSliceSource(nops))
	e, _ := NewEstimator(p, Options{M: 10, N: 20})
	e.Attach()
	drive(p, e, 5000)
	for _, s := range e.Structures() {
		for _, v := range e.AVFSeries(s) {
			if v != 0 {
				t.Errorf("%v AVF = %v on idle machine", s, v)
			}
		}
	}
}

func TestFailureCountedOncePerInjection(t *testing.T) {
	// Multiple failure-point retirements during one injection window must
	// count as a single failure (Section 3.1: one error source).
	p := newPipe(t, &loopTrace{})
	e, _ := NewEstimator(p, Options{M: 500, N: 4,
		Structures: []pipeline.Structure{pipeline.StructFXU}})
	e.Attach()
	drive(p, e, 500*4+10)
	ests := e.Estimates(pipeline.StructFXU)
	if len(ests) == 0 {
		t.Fatal("no estimate")
	}
	if ests[0].Failures > ests[0].Injections {
		t.Errorf("failures %d exceed injections %d", ests[0].Failures, ests[0].Injections)
	}
}

func TestLatencyRecording(t *testing.T) {
	p := newPipe(t, &loopTrace{})
	e, _ := NewEstimator(p, Options{M: 100, N: 50, RecordLatency: true,
		Structures: []pipeline.Structure{pipeline.StructFXU}})
	e.Attach()
	drive(p, e, 20_000)
	cdf := e.Latencies(pipeline.StructFXU)
	if cdf.N() == 0 {
		t.Fatal("no latencies recorded")
	}
	// Propagation latencies must be positive and bounded by M.
	if q := cdf.Quantile(1); q <= 0 || q > 100 {
		t.Errorf("max latency = %d, want (0, 100]", q)
	}
}

func TestRandomModesAreDeterministic(t *testing.T) {
	run := func() []float64 {
		p := newPipe(t, &loopTrace{})
		e, _ := NewEstimator(p, Options{M: 50, N: 20, Seed: 99,
			RandomEntry: true, RandomSchedule: true,
			Structures: []pipeline.Structure{pipeline.StructReg}})
		e.Attach()
		drive(p, e, 20_000)
		return e.AVFSeries(pipeline.StructReg)
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("series lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random-mode runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEstimatesNilForUnmonitored(t *testing.T) {
	p := newPipe(t, trace.NewSliceSource(nil))
	e, _ := NewEstimator(p, Options{M: 10, N: 10,
		Structures: []pipeline.Structure{pipeline.StructIQ}})
	if e.Estimates(pipeline.StructFPU) != nil {
		t.Error("unmonitored structure returned estimates")
	}
	if e.PendingInjections(pipeline.StructIQ) != 0 {
		t.Error("pending injections nonzero before any tick")
	}
}

func TestMultiplexMode(t *testing.T) {
	// With K structures multiplexed over one live error, each structure
	// accumulates injections K times slower, so estimates arrive every
	// K*M*N cycles.
	p := newPipe(t, &loopTrace{})
	structures := []pipeline.Structure{pipeline.StructIQ, pipeline.StructReg}
	e, err := NewEstimator(p, Options{M: 10, N: 5, Multiplex: true, Structures: structures})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	// 2 structures * M*N = 100 cycles per estimate; run 1000 cycles ->
	// ~10 estimates each.
	drive(p, e, 1000)
	for _, s := range structures {
		got := len(e.Estimates(s))
		if got < 8 || got > 10 {
			t.Errorf("%v: %d estimates after 1000 cycles (multiplexed, want ~9-10)", s, got)
		}
		for _, est := range e.Estimates(s) {
			if est.Injections != 5 {
				t.Errorf("%v estimate has %d injections", s, est.Injections)
			}
			if est.AVF < 0 || est.AVF > 1 {
				t.Errorf("%v AVF = %v", s, est.AVF)
			}
		}
	}
}

func TestMultiplexMatchesConcurrentInExpectation(t *testing.T) {
	// Multiplexed and plane-parallel estimation sample the same
	// distribution; over many intervals their means agree within the
	// sampling bound.
	run := func(mux bool) float64 {
		p := newPipe(t, &loopTrace{})
		e, _ := NewEstimator(p, Options{M: 20, N: 50, Multiplex: mux,
			Structures: []pipeline.Structure{pipeline.StructFXU, pipeline.StructReg}})
		e.Attach()
		drive(p, e, 100_000)
		sum, n := 0.0, 0
		for _, est := range e.Estimates(pipeline.StructFXU) {
			sum += est.AVF
			n++
		}
		if n == 0 {
			t.Fatal("no estimates")
		}
		return sum / float64(n)
	}
	mux, par := run(true), run(false)
	diff := mux - par
	if diff < 0 {
		diff = -diff
	}
	// Sampling sigma ~ 0.07 at N=50; means over many intervals are much
	// tighter. Allow a loose band.
	if diff > 0.1 {
		t.Errorf("multiplexed mean %.4f vs concurrent %.4f differ by %.4f", mux, par, diff)
	}
}

func TestRoundRobinCoversAllEntries(t *testing.T) {
	// Storage injection must cycle through every entry of the structure
	// (Section 3.3's round-robin approximation of per-entry sampling).
	p := newPipe(t, &loopTrace{})
	e, _ := NewEstimator(p, Options{M: 2, N: 1_000_000,
		Structures: []pipeline.Structure{pipeline.StructReg}})
	e.Attach()
	entries := p.StructureEntries(pipeline.StructReg)
	// Track next-entry progression over exactly `entries` injections.
	seen := map[int]bool{}
	st := e.states[pipeline.StructReg]
	for i := 0; i < entries; i++ {
		seen[st.nextEntry] = true
		drive(p, e, 2)
	}
	if len(seen) != entries {
		t.Errorf("round-robin visited %d/%d entries", len(seen), entries)
	}
}

func TestEstimateCycleAccounting(t *testing.T) {
	// Consecutive estimates tile the cycle axis without gaps.
	p := newPipe(t, &loopTrace{})
	e, _ := NewEstimator(p, Options{M: 10, N: 10,
		Structures: []pipeline.Structure{pipeline.StructIQ}})
	e.Attach()
	drive(p, e, 1000)
	ests := e.Estimates(pipeline.StructIQ)
	if len(ests) < 3 {
		t.Fatalf("only %d estimates", len(ests))
	}
	for i := 1; i < len(ests); i++ {
		if ests[i].StartCycle != ests[i-1].EndCycle {
			t.Errorf("gap between estimate %d and %d: %d != %d",
				i-1, i, ests[i-1].EndCycle, ests[i].StartCycle)
		}
		if got := ests[i].EndCycle - ests[i].StartCycle; got != 100 {
			t.Errorf("estimate %d spans %d cycles, want 100", i, got)
		}
	}
}

// TestOnIntervalStreams verifies the observer's Interval fires once per
// completed estimate, in order, carrying the same values the batch
// accessors later report.
func TestOnIntervalStreams(t *testing.T) {
	var streamed []Estimate
	p := newPipe(t, &loopTrace{})
	e, err := NewEstimator(p, Options{
		M: 10, N: 5,
		Structures: []pipeline.Structure{pipeline.StructIQ, pipeline.StructReg},
		Observer: funcObserver{interval: func(est Estimate, _, _ time.Time) {
			streamed = append(streamed, est)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	drive(p, e, 500)

	var batch []Estimate
	for _, s := range e.Structures() {
		batch = append(batch, e.Estimates(s)...)
	}
	if len(streamed) == 0 {
		t.Fatal("Interval never fired")
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d estimates, batch has %d", len(streamed), len(batch))
	}
	// The hook must deliver exactly the batch contents (order within a
	// structure ascending by interval; Structure field set).
	byStruct := map[pipeline.Structure][]Estimate{}
	for _, est := range streamed {
		if est.Structure != pipeline.StructIQ && est.Structure != pipeline.StructReg {
			t.Fatalf("estimate carries wrong structure %v", est.Structure)
		}
		if n := len(byStruct[est.Structure]); n != est.Interval {
			t.Fatalf("structure %v: got interval %d after %d estimates", est.Structure, est.Interval, n)
		}
		byStruct[est.Structure] = append(byStruct[est.Structure], est)
	}
	for _, s := range e.Structures() {
		want := e.Estimates(s)
		got := byStruct[s]
		if len(got) != len(want) {
			t.Fatalf("structure %v: streamed %d, batch %d", s, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("structure %v interval %d: streamed %+v != batch %+v", s, i, got[i], want[i])
			}
		}
	}
}

// TestIntervalCycles pins the interval length each run loop hands the
// SoftArch reference: M×N, K× longer under Multiplex, and with lanes the
// smallest structure pool's ceil(N/pool) boundaries of M cycles.
func TestIntervalCycles(t *testing.T) {
	three := []pipeline.Structure{pipeline.StructIQ, pipeline.StructReg, pipeline.StructFXU}
	for _, tc := range []struct {
		opt  Options
		want int64
	}{
		{Options{M: 10, N: 100}, 1000},
		{Options{M: 10, N: 100, Lanes: 1}, 1000},
		{Options{M: 10, N: 100, Multiplex: true}, 4000},
		{Options{M: 10, N: 100, Multiplex: true, Structures: three}, 3000},
		{Options{M: 10, N: 100, Lanes: 16}, 250},                   // pools of 4
		{Options{M: 10, N: 100, Lanes: 7}, 1000},                   // pools of 2, 2, 2, 1
		{Options{M: 10, N: 100, Lanes: 9, Structures: three}, 340}, // pools of 3: ceil(100/3)
		{Options{M: 10, N: 10, Lanes: 64}, 10},                     // pools of 16 > N
	} {
		p := newPipe(t, trace.NewSliceSource(nil))
		e, err := NewEstimator(p, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.IntervalCycles(); got != tc.want {
			t.Errorf("%+v: IntervalCycles = %d, want %d", tc.opt, got, tc.want)
		}
	}
}

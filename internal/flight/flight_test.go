package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
	"avfsim/internal/trace"
)

// newScriptedPipeline builds a pipeline running the given instruction
// slice once, with a recorder attached.
func newScriptedPipeline(t *testing.T, insts []isa.Inst, r *Recorder) *pipeline.Pipeline {
	t.Helper()
	cfg := config.Default()
	p, err := pipeline.New(&cfg, trace.NewSliceSource(insts))
	if err != nil {
		t.Fatal(err)
	}
	p.SetRecorder(r)
	return p
}

// clearPlane concludes plane s's injection the way the estimator does: a
// clear-plane delimiter carrying the pre-wipe population, then the wipe.
func clearPlane(p *pipeline.Pipeline, s pipeline.Structure) {
	var pops [pipeline.MaxLanes]int
	p.PlanePopulations(s.Bit(), &pops)
	p.EmitLaneClear(s, int(s), pops[s])
	p.ClearPlanes(s.Bit())
}

func drain(t *testing.T, p *pipeline.Pipeline) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if !p.Step() {
			return
		}
	}
	t.Fatal("pipeline failed to drain")
}

// TestRecorderRingDropsOldest: past capacity the oldest events go and
// the loss is counted.
func TestRecorderRingDropsOldest(t *testing.T) {
	r := New(3) // rounds up to 4
	for i := 0; i < 10; i++ {
		r.RecordErrEvent(pipeline.ErrEvent{Kind: pipeline.EvInject, Cycle: int64(i)})
	}
	events, dropped := r.Snapshot()
	if len(events) != 4 || dropped != 6 || r.Total() != 10 {
		t.Fatalf("len=%d dropped=%d total=%d, want 4/6/10", len(events), dropped, r.Total())
	}
	for i, ev := range events {
		if ev.Cycle != int64(6+i) {
			t.Errorf("event %d cycle = %d, want %d (oldest must go first)", i, ev.Cycle, 6+i)
		}
	}
}

// TestTraceInjectToRetireFail reconstructs the paper's Section 3.1
// store-failure example: an error injected into a source register
// propagates read -> write -> read into a store that retires erroneous.
// The trace must contain the full hop chain and a DAG path from the
// inject hop to the retire-fail hop.
func TestTraceInjectToRetireFail(t *testing.T) {
	r1, r4, r5 := isa.IntReg(1), isa.IntReg(4), isa.IntReg(5)
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.ClassIntALU, Dst: r4, Src1: r1, Src2: isa.RegNone},
		{PC: 0x1004, Class: isa.ClassIntALU, Dst: r5, Src1: r4, Src2: isa.RegNone},
		{PC: 0x1008, Class: isa.ClassStore, Dst: isa.RegNone, Src1: r5, Src2: r4, Addr: 0x100},
	}
	rec := New(0)
	p := newScriptedPipeline(t, insts, rec)
	// Before any cycle the architectural->physical map is the identity,
	// so arch r1 lives in physical register 1.
	p.Inject(pipeline.StructReg, 1, pipeline.StructReg.Bit())
	drain(t, p)
	clearPlane(p, pipeline.StructReg)

	res := rec.Traces()
	if len(res.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(res.Traces))
	}
	tr := res.Traces[0]
	if tr.Structure != "reg" || tr.Entry != 1 {
		t.Errorf("trace site = %s/%d, want reg/1", tr.Structure, tr.Entry)
	}
	if tr.Outcome != OutcomeFailure || tr.Failures != 1 {
		t.Errorf("outcome = %s failures = %d, want failure/1", tr.Outcome, tr.Failures)
	}
	if tr.Hops[0].Kind != "inject" {
		t.Errorf("hop 0 = %s, want inject", tr.Hops[0].Kind)
	}
	if last := tr.Hops[len(tr.Hops)-1]; last.Kind != "clear-plane" {
		t.Errorf("last hop = %s, want clear-plane", last.Kind)
	}
	kinds := map[string]int{}
	failHop := -1
	for i, h := range tr.Hops {
		kinds[h.Kind]++
		if h.Kind == "retire-fail" {
			failHop = i
			if h.Class != "store" {
				t.Errorf("retire-fail class = %s, want store", h.Class)
			}
		}
	}
	// The chain must show the error being read (r1 by inst 0, r4 by
	// inst 1 and the store, r5 by the store) and written (r4, r5).
	if kinds["read-copy"] < 3 || kinds["write-copy"] < 2 {
		t.Errorf("hop kinds = %v, want >=3 read-copy and >=2 write-copy", kinds)
	}
	// The DAG must connect the inject hop to the retire-fail hop.
	if failHop < 0 {
		t.Fatal("no retire-fail hop")
	}
	reach := map[int]bool{0: true}
	frontier := []int{0}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, e := range tr.Edges {
			if e[0] == n && !reach[e[1]] {
				reach[e[1]] = true
				frontier = append(frontier, e[1])
			}
		}
	}
	if !reach[failHop] {
		t.Errorf("retire-fail hop %d not reachable from inject over edges %v", failHop, tr.Edges)
	}
}

// TestTraceLogicIdleMasked: an armed logic injection on an idle unit
// reconstructs as a masked trace ending in a logic-mask hop.
func TestTraceLogicIdleMasked(t *testing.T) {
	rec := New(0)
	p := newScriptedPipeline(t, nil, rec)
	p.Inject(pipeline.StructFXU, 0, pipeline.StructFXU.Bit())
	for i := 0; i < 5; i++ {
		p.Step()
	}
	clearPlane(p, pipeline.StructFXU)

	res := rec.Traces()
	if len(res.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(res.Traces))
	}
	tr := res.Traces[0]
	if tr.Outcome != OutcomeMasked {
		t.Errorf("outcome = %s, want masked", tr.Outcome)
	}
	masked := false
	for _, h := range tr.Hops {
		if h.Kind == "logic-mask" {
			masked = true
		}
	}
	if !masked {
		t.Errorf("no logic-mask hop in %+v", tr.Hops)
	}
}

// TestTraceOpenWindow: an injection with no concluding clear-plane is
// emitted as outcome "open" with ConcludeCycle -1.
func TestTraceOpenWindow(t *testing.T) {
	rec := New(0)
	p := newScriptedPipeline(t, nil, rec)
	p.Inject(pipeline.StructReg, 3, pipeline.StructReg.Bit())
	res := rec.Traces()
	if len(res.Traces) != 1 || res.Traces[0].Outcome != OutcomeOpen || res.Traces[0].ConcludeCycle != -1 {
		t.Fatalf("open window not reconstructed: %+v", res.Traces)
	}
}

// TestWriteNDJSON: one JSON object per line, each a decodable trace,
// plus a summary line only when events were lost.
func TestWriteNDJSON(t *testing.T) {
	rec := New(0)
	p := newScriptedPipeline(t, nil, rec)
	p.Inject(pipeline.StructReg, 2, pipeline.StructReg.Bit())
	clearPlane(p, pipeline.StructReg)
	p.Inject(pipeline.StructDTLB, 0, pipeline.StructDTLB.Bit())
	clearPlane(p, pipeline.StructDTLB)

	var buf bytes.Buffer
	if err := rec.Traces().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var tr Trace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("line %d not a trace: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d NDJSON lines, want 2 (no summary line without loss)", lines)
	}

	// With forced drops the summary line must appear.
	lossy := &Reconstruction{Dropped: 5}
	buf.Reset()
	if err := lossy.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"dropped_events\":5") {
		t.Errorf("summary line missing: %q", buf.String())
	}
}

// TestReconciliationWithEstimator runs a real (small) experiment with
// the recorder attached and checks the flight traces against the
// estimator's own bookkeeping: per structure, the closed traces must
// number exactly the concluded injections, and the failure-outcome
// traces must sum to the estimator's failure counts — the numerator of
// every reported AVF.
func TestReconciliationWithEstimator(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run")
	}
	rec := New(1 << 18)
	estimates := map[string][]core.Estimate{}
	_, err := experiment.Run(experiment.RunConfig{
		Benchmark: "mesa",
		Scale:     0.02,
		Seed:      7,
		M:         200, N: 50, Intervals: 2,
		Recorder: rec,
		OnInterval: func(e core.Estimate) {
			s := e.Structure.String()
			estimates[s] = append(estimates[s], e)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	res := rec.Traces()
	if res.Dropped != 0 || res.Orphans != 0 {
		t.Fatalf("lossy recording (dropped=%d orphans=%d) breaks reconciliation", res.Dropped, res.Orphans)
	}
	closed := map[string]int{}
	failures := map[string]int{}
	for _, tr := range res.Traces {
		if tr.Outcome == OutcomeOpen {
			continue
		}
		closed[tr.Structure]++
		if tr.Outcome == OutcomeFailure {
			failures[tr.Structure]++
		}
	}
	if len(estimates) == 0 {
		t.Fatal("no estimates observed")
	}
	for s, es := range estimates {
		wantClosed, wantFail := 0, 0
		for _, e := range es {
			wantClosed += e.Injections
			wantFail += e.Failures
		}
		if closed[s] != wantClosed {
			t.Errorf("%s: %d closed traces, estimator concluded %d injections", s, closed[s], wantClosed)
		}
		if failures[s] != wantFail {
			t.Errorf("%s: %d failure traces, estimator counted %d failures", s, failures[s], wantFail)
		}
	}
	// Sanity: the run must actually have produced failures to reconcile.
	total := 0
	for _, n := range failures {
		total += n
	}
	if total == 0 {
		t.Error("no failure traces at all; reconciliation is vacuous")
	}
}

package pipeline

import (
	"testing"

	"avfsim/internal/isa"
)

// maskCollector records OnFailureMask callbacks: one entry per
// failure-point retirement that carried error bits.
type maskCollector struct {
	masks  []ErrMask
	cycles []int64
}

func newMaskCollector(p *Pipeline) *maskCollector {
	mc := &maskCollector{}
	p.SetHooks(Hooks{OnFailureMask: func(m ErrMask, seq, cycle int64, class isa.Class) {
		mc.masks = append(mc.masks, m)
		mc.cycles = append(mc.cycles, cycle)
	}})
	return mc
}

// union ORs all recorded masks.
func (mc *maskCollector) union() ErrMask {
	var u ErrMask
	for _, m := range mc.masks {
		u |= m
	}
	return u
}

// TestLanesOfDifferentStructuresOnOneRetirement: a register-lane error
// and a logic-lane error (different structures, arbitrary lane bits)
// propagate into the SAME retiring store; the retired mask carries both
// lane bits in one OnFailureMask callback, so the lane table can charge
// two different structures from one retirement.
func TestLanesOfDifferentStructuresOnOneRetirement(t *testing.T) {
	const regLane, fxuLane = 5, 40
	r1, r5 := isa.IntReg(1), isa.IntReg(5)
	insts := []isa.Inst{
		alu(0x1000, r5, r1, isa.RegNone), // reads corrupted r1, result via corrupted ALU
		{PC: 0x1004, Class: isa.ClassStore, Dst: isa.RegNone, Src1: r5, Src2: r1, Addr: 0x100},
	}
	p := newTestPipeline(t, insts)
	mc := newMaskCollector(p)
	p.Inject(StructReg, int(physOf(p, r1)), LaneBit(regLane))
	// Arm the FXU-unit-0 lane injection every cycle until the ALU op
	// starts; exactly one arming can land.
	for i := 0; i < 1000 && p.Retired() < 2; i++ {
		p.Inject(StructFXU, 0, LaneBit(fxuLane))
		p.Step()
	}
	runToDrain(t, p)
	want := LaneBit(regLane) | LaneBit(fxuLane)
	if got := mc.union(); got&want != want {
		t.Fatalf("retired failure mask %b missing lanes %d/%d (want bits %b)", got, regLane, fxuLane, want)
	}
	// The store is the only failure point; each retirement reports once.
	if len(mc.masks) != 1 {
		t.Fatalf("OnFailureMask fired %d times, want 1 (one failure-point retirement)", len(mc.masks))
	}
}

// TestClearPlanesFusedScan: one ClearPlanes call scrubs exactly the
// requested lanes — in registers AND in-flight instructions — leaving
// other lanes' bits intact.
func TestClearPlanesFusedScan(t *testing.T) {
	r1, r2, r5 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(5)
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.ClassIntDiv, Dst: r5, Src1: r1, Src2: r2}, // long latency: stays in flight
		{PC: 0x1004, Class: isa.ClassStore, Dst: isa.RegNone, Src1: r5, Src2: r1, Addr: 0x100},
	}
	p := newTestPipeline(t, insts)
	mc := newMaskCollector(p)
	p.Inject(StructReg, int(physOf(p, r1)), LaneBit(3))
	p.Inject(StructReg, int(physOf(p, r2)), LaneBit(31))
	p.Inject(StructReg, int(physOf(p, r2)), LaneBit(63))
	// Let the divide issue, reading all three corrupted lanes.
	for i := 0; i < 10; i++ {
		p.Step()
	}
	var pops [MaxLanes]int
	p.PlanePopulations(LaneBit(3)|LaneBit(31)|LaneBit(63), &pops)
	for _, lane := range []int{3, 31, 63} {
		if pops[lane] == 0 {
			t.Fatalf("lane %d has no live bits before the clear", lane)
		}
	}
	// Fused clear of lanes 3 and 31; lane 63 must survive.
	p.ClearPlanes(LaneBit(3) | LaneBit(31))
	p.PlanePopulations(LaneBit(3)|LaneBit(31)|LaneBit(63), &pops)
	if pops[3] != 0 || pops[31] != 0 {
		t.Fatalf("cleared lanes still populated: lane3=%d lane31=%d", pops[3], pops[31])
	}
	if pops[63] == 0 {
		t.Fatal("uncleared lane 63 was wiped by ClearPlanes of other lanes")
	}
	runToDrain(t, p)
	if got := mc.union(); got&(LaneBit(3)|LaneBit(31)) != 0 {
		t.Fatalf("cleared lanes reached a failure point: mask %b", got)
	}
	if got := mc.union(); got&LaneBit(63) == 0 {
		t.Fatalf("surviving lane 63 failed to reach the store: mask %b", mc.union())
	}
}

// TestLaneRecyclingNoContamination: clearing a lane and immediately
// reusing its bit for a fresh experiment must not let the old
// experiment's bits leak into the new one. The first injection
// propagates into an in-flight divide; after ClearPlanes the same lane
// bit is re-injected into a register nothing reads — if any stale bit
// survived the wipe, the store would retire carrying the recycled lane.
func TestLaneRecyclingNoContamination(t *testing.T) {
	const lane = 17
	r1, r5, r9 := isa.IntReg(1), isa.IntReg(5), isa.IntReg(9)
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.ClassIntDiv, Dst: r5, Src1: r1, Src2: isa.RegNone},
		{PC: 0x1004, Class: isa.ClassStore, Dst: isa.RegNone, Src1: r5, Src2: r1, Addr: 0x100},
	}
	p := newTestPipeline(t, insts)
	mc := newMaskCollector(p)
	p.Inject(StructReg, int(physOf(p, r1)), LaneBit(lane))
	// The divide issues and reads the corrupted register.
	for i := 0; i < 10; i++ {
		p.Step()
	}
	// Conclude experiment 1 and recycle the lane in the same cycle:
	// the new experiment targets r9, which nothing in the trace reads.
	p.ClearPlanes(LaneBit(lane))
	p.Inject(StructReg, int(physOf(p, r9)), LaneBit(lane))
	runToDrain(t, p)
	if got := mc.union(); got&LaneBit(lane) != 0 {
		t.Fatalf("recycled lane %d contaminated by the concluded experiment: mask %b", lane, got)
	}
}

// TestPlanePopulationsMatchesPerPlaneScans: the fused multi-lane count
// agrees with the legacy single-structure scan on plane-layout bits
// (bit index == structure), with errors live in registers, the ROB, and
// an armed logic injection.
func TestPlanePopulationsMatchesPerPlaneScans(t *testing.T) {
	r1, r2, r5 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(5)
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.ClassIntDiv, Dst: r5, Src1: r1, Src2: r2},
		{PC: 0x1004, Class: isa.ClassStore, Dst: isa.RegNone, Src1: r5, Src2: r1, Addr: 0x100},
	}
	p := newTestPipeline(t, insts)
	p.Inject(StructReg, int(physOf(p, r1)), StructReg.Bit())
	p.Inject(StructFPReg, 2, StructFPReg.Bit())
	for i := 0; i < 6; i++ {
		p.Step()
	}
	p.Inject(StructFXU, 0, StructFXU.Bit()) // armed, counted by both scans until consumed/masked
	var mask ErrMask
	for s := Structure(0); int(s) < NumStructures; s++ {
		mask |= s.Bit()
	}
	var pops [MaxLanes]int
	p.PlanePopulations(mask, &pops)
	for s := Structure(0); int(s) < NumStructures; s++ {
		if want := planePopulation(p, s); pops[s] != want {
			t.Errorf("%v: fused population %d, per-plane scan %d", s, pops[s], want)
		}
	}
}

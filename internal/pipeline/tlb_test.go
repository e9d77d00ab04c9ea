package pipeline

import (
	"testing"

	"avfsim/internal/isa"
)

// loadsTo builds n loads, all to addresses within the same page.
func loadsTo(n int, page uint64) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: uint64(0x1000 + 4*(i%32)), Class: isa.ClassLoad,
			Dst: isa.IntReg(5 + i%8), Src1: isa.IntReg(1), Src2: isa.RegNone,
			Addr: page + uint64(8*(i%64)),
		}
	}
	return insts
}

// dtlbEntryFor runs the pipeline until the page is resident and returns
// the dTLB entry that translates it. The Hierarchy is probed directly.
func TestDTLBInjectionHitCausesFailure(t *testing.T) {
	// Plenty of loads to one page: corrupt every dTLB entry once the
	// page is resident; subsequent loads must flag failures.
	p := newTestPipeline(t, loadsTo(500, 0x40000))
	fc := newFailureCollector(p)
	// Warm up until some loads retired (page resident).
	for i := 0; i < 3000 && p.Retired() < 50; i++ {
		p.Step()
	}
	if p.Retired() == 0 {
		t.Fatal("nothing retired in warmup")
	}
	for e := 0; e < p.StructureEntries(StructDTLB); e++ {
		p.Inject(StructDTLB, e, StructDTLB.Bit())
	}
	runToDrain(t, p)
	if fc.count[StructDTLB] == 0 {
		t.Error("corrupted resident dTLB entry never caused a failure")
	}
}

func TestDTLBRefillClearsInjection(t *testing.T) {
	// Inject into all entries of a *cold* dTLB: the first access to each
	// page refills its entry, overwriting the error before any use.
	p := newTestPipeline(t, loadsTo(200, 0x40000))
	fc := newFailureCollector(p)
	for e := 0; e < p.StructureEntries(StructDTLB); e++ {
		p.Inject(StructDTLB, e, StructDTLB.Bit())
	}
	runToDrain(t, p)
	if fc.count[StructDTLB] != 0 {
		t.Errorf("cold-TLB injection caused %d failures; refill should have cleared it", fc.count[StructDTLB])
	}
}

func TestITLBInjectionCorruptsFetchedInstructions(t *testing.T) {
	// A long run of code in one page: corrupt the iTLB entries after
	// warmup; subsequently fetched failure-point instructions (the
	// stores here) must flag failures.
	var insts []isa.Inst
	for i := 0; i < 600; i++ {
		if i%2 == 0 {
			insts = append(insts, alu(uint64(0x1000+4*(i%128)), isa.IntReg(5+i%8), isa.IntReg(1), isa.RegNone))
		} else {
			insts = append(insts, isa.Inst{
				PC: uint64(0x1000 + 4*(i%128)), Class: isa.ClassStore,
				Dst: isa.RegNone, Src1: isa.IntReg(5 + i%8), Src2: isa.IntReg(1),
				Addr: uint64(0x9000 + 8*(i%32)),
			})
		}
	}
	p := newTestPipeline(t, insts)
	fc := newFailureCollector(p)
	for i := 0; i < 3000 && p.Retired() < 50; i++ {
		p.Step()
	}
	for e := 0; e < p.StructureEntries(StructITLB); e++ {
		p.Inject(StructITLB, e, StructITLB.Bit())
	}
	runToDrain(t, p)
	if fc.count[StructITLB] == 0 {
		t.Error("corrupted iTLB entry never propagated to a failure")
	}
}

func TestTLBClearPlane(t *testing.T) {
	p := newTestPipeline(t, loadsTo(500, 0x40000))
	fc := newFailureCollector(p)
	for i := 0; i < 3000 && p.Retired() < 50; i++ {
		p.Step()
	}
	for e := 0; e < p.StructureEntries(StructDTLB); e++ {
		p.Inject(StructDTLB, e, StructDTLB.Bit())
	}
	p.ClearPlanes(StructDTLB.Bit())
	runToDrain(t, p)
	if fc.count[StructDTLB] != 0 {
		t.Errorf("ClearPlanes left %d dTLB failures", fc.count[StructDTLB])
	}
}

func TestTLBAccessEvents(t *testing.T) {
	p := newTestPipeline(t, loadsTo(100, 0x40000))
	var refills, hits int
	var entries = map[int]bool{}
	p.SetHooks(Hooks{OnTLBAccess: func(s Structure, entry int, cycle int64, refill bool) {
		if s != StructDTLB && s != StructITLB {
			t.Fatalf("unexpected structure %v", s)
		}
		if s == StructDTLB {
			if refill {
				refills++
			} else {
				hits++
			}
			entries[entry] = true
		}
	}})
	runToDrain(t, p)
	// One data page: exactly one refill, everything else hits, one entry.
	if refills != 1 {
		t.Errorf("dTLB refills = %d, want 1", refills)
	}
	if hits != 99 {
		t.Errorf("dTLB hits = %d, want 99", hits)
	}
	if len(entries) != 1 {
		t.Errorf("touched %d entries, want 1", len(entries))
	}
}

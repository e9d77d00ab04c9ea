package pipeline

import (
	"math/rand"
	"testing"

	"avfsim/internal/isa"
)

// mixTrace builds a loop mixing int ALU, FP, loads, and stores so every
// monitored structure sees traffic: issue queues fill, both register
// files allocate, all three logic-unit kinds initiate, and both TLBs
// fault pages in.
func mixTrace(n int) []isa.Inst {
	var insts []isa.Inst
	for i := 0; i < n; i++ {
		pc := uint64(0x1000 + 4*(i%128))
		switch i % 4 {
		case 0:
			insts = append(insts, isa.Inst{PC: pc, Class: isa.ClassIntALU,
				Dst: isa.IntReg(5 + i%8), Src1: isa.IntReg(1), Src2: isa.RegNone})
		case 1:
			insts = append(insts, isa.Inst{PC: pc, Class: isa.ClassFPAdd,
				Dst: isa.FPReg(3 + i%6), Src1: isa.FPReg(1), Src2: isa.RegNone})
		case 2:
			insts = append(insts, isa.Inst{PC: pc, Class: isa.ClassLoad,
				Dst: isa.IntReg(5 + i%8), Src1: isa.IntReg(1), Src2: isa.RegNone,
				Addr: uint64(0x4000 + 64*(i%512))})
		default:
			insts = append(insts, isa.Inst{PC: pc, Class: isa.ClassStore, Dst: isa.RegNone,
				Src1: isa.IntReg(5 + i%8), Src2: isa.IntReg(1),
				Addr: uint64(0x8000 + 64*(i%512))})
		}
	}
	return insts
}

// TestOccupanciesGroundTruth pins the fused occupancy scan against
// independently-maintained counters: the per-cycle IQ sample stream must
// integrate to exactly IQOccupancySum, every count must stay within
// [0, StructureEntries], the architectural register mappings keep both
// register files at >= 32 allocated, and the TLBs only ever grow toward
// capacity under this loop (nothing is evicted before the table fills).
func TestOccupanciesGroundTruth(t *testing.T) {
	p := newTestPipeline(t, mixTrace(4000))

	var counts [NumStructures]int
	p.Occupancies(&counts)
	for s := 0; s < NumStructures; s++ {
		if counts[s] != 0 && s != int(StructReg) && s != int(StructFPReg) {
			t.Fatalf("fresh pipeline: %v occupancy %d, want 0", Structure(s), counts[s])
		}
	}
	if counts[StructReg] != 32 || counts[StructFPReg] != 32 {
		t.Fatalf("fresh pipeline: reg=%d fpreg=%d, want 32/32 (arch mappings)",
			counts[StructReg], counts[StructFPReg])
	}

	var iqIntegral int64
	sawBusy := [NumStructures]bool{}
	prevTLB := [2]int{}
	for i := 0; i < 3000; i++ {
		p.Step()
		p.Occupancies(&counts)
		iqIntegral += int64(counts[StructIQ])
		for s := 0; s < NumStructures; s++ {
			st := Structure(s)
			if counts[s] < 0 || counts[s] > p.StructureEntries(st) {
				t.Fatalf("cycle %d: %v occupancy %d out of [0, %d]",
					p.Cycle(), st, counts[s], p.StructureEntries(st))
			}
			if counts[s] > 0 {
				sawBusy[s] = true
			}
		}
		if counts[StructReg] < 32 || counts[StructFPReg] < 32 {
			t.Fatalf("cycle %d: allocated regs below the 32 arch mappings", p.Cycle())
		}
		if counts[StructDTLB] < prevTLB[0] || counts[StructITLB] < prevTLB[1] {
			t.Fatalf("cycle %d: TLB occupancy shrank without eviction pressure", p.Cycle())
		}
		prevTLB[0], prevTLB[1] = counts[StructDTLB], counts[StructITLB]
	}
	if iqIntegral != p.IQOccupancySum() {
		t.Fatalf("per-cycle IQ samples integrate to %d, IQOccupancySum says %d",
			iqIntegral, p.IQOccupancySum())
	}
	for s := 0; s < NumStructures; s++ {
		if !sawBusy[s] {
			t.Errorf("%v never occupied across 3000 cycles of a mixed trace", Structure(s))
		}
	}
}

// planePopulation is the per-plane population scan the pipeline shipped
// before PlanePopulations replaced it, kept as the test oracle: it counts
// the live bits of plane s everywhere they can reside — physical
// registers, in-flight ROB entries, TLB entries, the fetch path, the
// instruction buffer, and armed logic injections.
func planePopulation(p *Pipeline, s Structure) int {
	bit := s.Bit()
	n := 0
	for _, m := range p.intRF.err {
		if m&bit != 0 {
			n++
		}
	}
	for _, m := range p.fpRF.err {
		if m&bit != 0 {
			n++
		}
	}
	robA, robB := p.rob.spans()
	for _, u := range robA {
		if u.errMask&bit != 0 {
			n++
		}
	}
	for _, u := range robB {
		if u.errMask&bit != 0 {
			n++
		}
	}
	for _, m := range p.dtlbErr {
		if m&bit != 0 {
			n++
		}
	}
	for _, m := range p.itlbErr {
		if m&bit != 0 {
			n++
		}
	}
	if p.curLineErr&bit != 0 {
		n++
	}
	ibA, ibB := p.instBuf.spans()
	for _, f := range ibA {
		if f.errMask&bit != 0 {
			n++
		}
	}
	for _, f := range ibB {
		if f.errMask&bit != 0 {
			n++
		}
	}
	if p.logicArmed {
		for i := 0; i < p.armCount; i++ {
			if p.arms[i].bit&bit != 0 {
				n++
			}
		}
	}
	return n
}

// TestPlanePopulationsMatchesPerPlaneFuzz cross-checks the fused
// multi-lane scan against the per-plane oracle under randomized
// occupancy. Lane bits 0..7 share the bit namespace with the structure
// planes (LaneBit(i) == Structure(i).Bit()), so injecting into lanes
// 0..7 and scanning with PlanePopulations must agree bit-for-bit with
// eight independent planePopulation scans — across random traces,
// random injection targets, random step counts, and random plane clears.
func TestPlanePopulationsMatchesPerPlaneFuzz(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		p := newTestPipeline(t, mixTrace(200_000))
		const allLanes = 8

		check := func(round int) {
			var mask ErrMask
			for i := 0; i < allLanes; i++ {
				if rng.Intn(3) > 0 { // random sub-mask, usually most lanes
					mask |= LaneBit(i)
				}
			}
			if mask == 0 {
				mask = LaneBit(rng.Intn(allLanes))
			}
			var fused [MaxLanes]int
			p.PlanePopulations(mask, &fused)
			for i := 0; i < allLanes; i++ {
				if mask&LaneBit(i) == 0 {
					continue
				}
				if want := planePopulation(p, Structure(i)); fused[i] != want {
					t.Fatalf("seed %d round %d: lane %d fused pop %d != per-plane %d (mask %#x)",
						seed, round, i, fused[i], want, mask)
				}
			}
		}

		for round := 0; round < 40; round++ {
			for i, steps := 0, rng.Intn(50); i < steps; i++ {
				p.Step()
			}
			for n := rng.Intn(6); n > 0; n-- {
				lane := rng.Intn(allLanes)
				s := Structure(rng.Intn(NumStructures))
				p.Inject(s, rng.Intn(p.StructureEntries(s)), LaneBit(lane))
			}
			check(round)
			if rng.Intn(4) == 0 {
				var clear ErrMask
				for i := 0; i < allLanes; i++ {
					if rng.Intn(2) == 0 {
						clear |= LaneBit(i)
					}
				}
				p.ClearPlanes(clear)
				check(round)
			}
		}
	}
}

package pipeline

import (
	"fmt"
	"math/bits"
)

// This file is the error-injection surface used by the online AVF
// estimator (internal/core). Storage injections set the error bit of one
// entry; logic injections arm a single-cycle corruption of one unit,
// landing only if an operation starts on that unit during the next cycle
// (an idle unit masks the error, per Section 3.1). Every entry point
// takes the bits explicitly; which layout they follow is the caller's
// business, and the propagation machinery downstream never cares.

// logicArm is one armed single-cycle logic injection: the next operation
// starting on unit `unit` of structure `s` acquires `bit`. bit == 0 marks
// a consumed or cleared arm (the slot is reclaimed at end of cycle).
type logicArm struct {
	s    Structure
	unit int32
	bit  ErrMask
}

// StructureEntries returns the number of injectable entries (storage) or
// units (logic) of s — the K used for round-robin entry selection.
func (p *Pipeline) StructureEntries(s Structure) int {
	switch s {
	case StructIQ:
		return p.cfg.FXUQueueEntries + p.cfg.FPUQueueEntries + p.cfg.BrQueueEntries
	case StructReg:
		return p.cfg.IntRegs
	case StructFPReg:
		return p.cfg.FPRegs
	case StructFXU:
		return p.cfg.NumIntUnits
	case StructFPU:
		return p.cfg.NumFPUnits
	case StructLSU:
		return p.cfg.NumLSUnits
	case StructDTLB:
		return p.cfg.DTLBEntries
	case StructITLB:
		return p.cfg.ITLBEntries
	default:
		panic(fmt.Sprintf("pipeline: unknown structure %v", s))
	}
}

// iqSlot maps a combined issue-queue entry index to (queue, slot). Entries
// are numbered FXU queue first, then FPU, then branch.
func (p *Pipeline) iqSlot(idx int) (QueueID, int) {
	if idx < p.cfg.FXUQueueEntries {
		return QFXU, idx
	}
	idx -= p.cfg.FXUQueueEntries
	if idx < p.cfg.FPUQueueEntries {
		return QFPU, idx
	}
	return QBr, idx - p.cfg.FPUQueueEntries
}

// Inject emulates a soft error in entry/unit idx of structure s by setting
// bit there. For storage structures the bit lands immediately (an empty
// entry masks the error: nothing ever reads it). For logic structures the
// injection is armed for the next simulated cycle only. It reports
// whether the error landed on live content (occupied entry or a unit that
// will see the armed cycle) — diagnostic only; masking is decided by the
// normal propagation rules.
func (p *Pipeline) Inject(s Structure, idx int, bit ErrMask) bool {
	if idx < 0 || idx >= p.StructureEntries(s) { // panics on an unknown s
		panic(fmt.Sprintf("pipeline: inject %v entry %d out of range", s, idx))
	}
	landed, seq := true, int64(-1)
	switch s {
	case StructIQ:
		q, slot := p.iqSlot(idx)
		// An empty entry masks the error: it has nowhere to live.
		if u := p.queues[q].slots[slot]; u != nil {
			u.errMask |= bit
			seq = u.seq
		} else {
			landed = false
		}
	case StructReg:
		p.intRF.err[idx] |= bit
		landed = p.intRF.ready[idx]
	case StructFPReg:
		p.fpRF.err[idx] |= bit
		landed = p.fpRF.ready[idx]
	case StructDTLB:
		p.dtlbErr[idx] |= bit
	case StructITLB:
		p.itlbErr[idx] |= bit
	default: // StructFXU, StructFPU, StructLSU
		p.armLogic(s, idx, bit)
	}
	if p.recOn {
		ev := p.baseEv(EvInject, bit)
		ev.Structure, ev.Entry, ev.Seq = s, idx, seq
		switch s {
		case StructReg:
			ev.File, ev.Phys = IntFile, int16(idx)
		case StructFPReg:
			ev.File, ev.Phys = FPFile, int16(idx)
		}
		p.emitEv(ev)
	}
	return landed
}

// armLogic records a single-cycle logic injection. Re-arming the same bit
// overwrites its previous arm (the legacy pendingLogic[s] = idx semantics,
// generalized per bit); distinct bits arm independently, so several lanes
// may target the same or different units in one cycle.
func (p *Pipeline) armLogic(s Structure, unit int, bit ErrMask) {
	for i := 0; i < p.armCount; i++ {
		if p.arms[i].bit == bit {
			p.arms[i].s = s
			p.arms[i].unit = int32(unit)
			p.logicArmed = true
			return
		}
	}
	// Reuse a consumed slot before growing the table.
	for i := 0; i < p.armCount; i++ {
		if p.arms[i].bit == 0 {
			p.arms[i] = logicArm{s: s, unit: int32(unit), bit: bit}
			p.logicArmed = true
			return
		}
	}
	if p.armCount >= MaxLanes {
		panic("pipeline: logic-arm table overflow")
	}
	p.arms[p.armCount] = logicArm{s: s, unit: int32(unit), bit: bit}
	p.armCount++
	p.logicArmed = true
}

// ClearPlanes removes every bit in mask from the machine — physical
// registers, in-flight ROB entries, TLB entries, the fetch path, the
// instruction buffer, and armed logic injections — in ONE full-machine
// scan, so concluding many same-cycle experiments costs the same as
// concluding one. It emits no flight events: the estimator emits a
// clear-plane delimiter per lane first (EmitLaneClear), with the
// structure attribution only its lane table knows.
func (p *Pipeline) ClearPlanes(mask ErrMask) {
	if mask == 0 {
		return
	}
	p.intRF.clearPlane(mask)
	p.fpRF.clearPlane(mask)
	robA, robB := p.rob.spans()
	for _, u := range robA {
		u.errMask &^= mask
	}
	for _, u := range robB {
		u.errMask &^= mask
	}
	for i := range p.dtlbErr {
		p.dtlbErr[i] &^= mask
	}
	for i := range p.itlbErr {
		p.itlbErr[i] &^= mask
	}
	p.curLineErr &^= mask
	ibA, ibB := p.instBuf.spans()
	for i := range ibA {
		ibA[i].errMask &^= mask
	}
	for i := range ibB {
		ibB[i].errMask &^= mask
	}
	if p.logicArmed {
		for i := 0; i < p.armCount; i++ {
			p.arms[i].bit &^= mask
		}
	}
}

// PlanePopulations counts the live bits of every bit in mask in ONE
// full-machine scan, writing bit i's population to counts[i] (only the
// set bits' slots are written). The estimator samples it once per
// injection boundary, before ClearPlanes, to tell masked errors
// (population 0: execution discarded the error) from still-pending ones.
func (p *Pipeline) PlanePopulations(mask ErrMask, counts *[MaxLanes]int) {
	if mask == 0 {
		return
	}
	for m := uint64(mask); m != 0; m &= m - 1 {
		counts[bits.TrailingZeros64(m)] = 0
	}
	for _, m := range p.intRF.err {
		addLaneCounts(m, mask, counts)
	}
	for _, m := range p.fpRF.err {
		addLaneCounts(m, mask, counts)
	}
	robA, robB := p.rob.spans()
	for _, u := range robA {
		addLaneCounts(u.errMask, mask, counts)
	}
	for _, u := range robB {
		addLaneCounts(u.errMask, mask, counts)
	}
	for _, m := range p.dtlbErr {
		addLaneCounts(m, mask, counts)
	}
	for _, m := range p.itlbErr {
		addLaneCounts(m, mask, counts)
	}
	addLaneCounts(p.curLineErr, mask, counts)
	ibA, ibB := p.instBuf.spans()
	for _, f := range ibA {
		addLaneCounts(f.errMask, mask, counts)
	}
	for _, f := range ibB {
		addLaneCounts(f.errMask, mask, counts)
	}
	if p.logicArmed {
		for i := 0; i < p.armCount; i++ {
			addLaneCounts(p.arms[i].bit, mask, counts)
		}
	}
}

// addLaneCounts bumps counts[i] for every lane i set in both em and mask.
func addLaneCounts(em, mask ErrMask, counts *[MaxLanes]int) {
	for got := uint64(em) & uint64(mask); got != 0; got &= got - 1 {
		counts[bits.TrailingZeros64(got)]++
	}
}

// UnitKind returns the functional-unit kind monitored by a logic
// structure.
func UnitKind(s Structure) (FUKind, bool) {
	switch s {
	case StructFXU:
		return FUInt, true
	case StructFPU:
		return FUFP, true
	case StructLSU:
		return FULS, true
	default:
		return 0, false
	}
}

// BusyUnitCycles returns the accumulated busy unit-cycles for a unit
// kind — the counter behind the utilization-based AVF baseline.
func (p *Pipeline) BusyUnitCycles(k FUKind) int64 { return p.busyUnitCycles[k] }

// IQOccupancySum returns the accumulated combined issue-queue population
// (entry-cycles) — the counter behind the occupancy-based AVF baseline.
func (p *Pipeline) IQOccupancySum() int64 { return p.iqOccupancySum }

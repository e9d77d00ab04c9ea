package pipeline

import "avfsim/internal/isa"

// RetireEvent describes one retired instruction with everything the
// offline ACE analysis (internal/softarch) and the online estimator need:
// dataflow (which instructions produced the sources), structure residency
// windows, and the error bits carried at retirement.
//
// Event pointers are only valid for the duration of the callback; copy
// what you keep.
type RetireEvent struct {
	// Seq is the dynamic instruction index (fetch order, 0-based).
	Seq int64
	// Class is the instruction class.
	Class isa.Class
	// PC is the instruction address.
	PC uint64

	// DispatchCycle..RetireCycle delimit the instruction's life.
	DispatchCycle int64
	// IssueCycle is when the instruction left its issue queue, or -1 for
	// instructions that bypass the queues (nops).
	IssueCycle int64
	// RetireCycle is the current cycle.
	RetireCycle int64

	// Queue and QueueEntry locate the issue-queue residency
	// [DispatchCycle, IssueCycle); Queue is QNone for nops.
	Queue      QueueID
	QueueEntry int

	// FU identifies the unit kind, Unit the unit instance, and ExecStart
	// the cycle execution began (-1 if no unit).
	FU        FUKind
	Unit      int
	ExecStart int64

	// SrcProducers holds the Seq of the instruction that produced each
	// register source, or -1 (no source / initial register state).
	SrcProducers [2]int64
	// DstFile and DstPhys identify the physical destination register, or
	// DstPhys = -1 when the instruction writes no register.
	DstFile RegFileID
	DstPhys int16

	// Err is the error-bit mask carried at retirement.
	Err ErrMask
	// Mispredicted reports a branch the front end mispredicted.
	Mispredicted bool
}

// Hooks are the pipeline's observation points. Any field may be nil.
// Callbacks run synchronously inside Step; they must not call back into
// the pipeline's mutating methods.
type Hooks struct {
	// OnRetire fires for every retired instruction.
	OnRetire func(ev *RetireEvent)
	// OnFailureMask fires once per failure-point (load, store, branch)
	// retirement carrying error bits, with the whole mask; the consumer
	// (the estimator's lane table) resolves each set bit to the
	// experiment it belongs to. class is the retiring instruction's class
	// — the failure mode (bad load value, corrupted store, control
	// divergence) the injection-lifecycle trace attributes failures to.
	OnFailureMask func(mask ErrMask, seq, cycle int64, class isa.Class)
	// OnFailure is the structure-keyed form kept for perfbench's traced
	// loop: when OnFailureMask is nil, SetHooks delivers each set bit b of
	// a failure mask, ascending, as OnFailure(Structure(b), ...).
	OnFailure func(s Structure, seq, cycle int64, class isa.Class)
	// OnRegWrite fires when a physical register is written (writeback).
	OnRegWrite func(file RegFileID, phys int16, cycle, writerSeq int64)
	// OnRegRead fires when a physical register is read (operand read at
	// issue).
	OnRegRead func(file RegFileID, phys int16, cycle, readerSeq int64)
	// OnRegFree fires when a physical register returns to the free list
	// (the overwriting instruction retired).
	OnRegFree func(file RegFileID, phys int16, cycle int64)
	// OnTLBAccess fires for every translation: which TLB, which entry,
	// and whether the entry was refilled (overwriting its previous
	// translation) rather than hit.
	OnTLBAccess func(s Structure, entry int, cycle int64, refill bool)
}

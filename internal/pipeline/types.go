// Package pipeline implements the trace-driven out-of-order superscalar
// timing model (the Turandot stand-in) with the paper's error-bit
// machinery built in: every physical register, issue-queue entry, and
// functional unit carries one error bit per monitored structure, and the
// bits propagate with the dataflow — reads OR source bits into the
// consuming instruction, writes overwrite the destination's bits, idle
// units mask their bit, and retirement of a load, store, or branch with a
// set bit is a potential failure.
package pipeline

import (
	"fmt"

	"avfsim/internal/isa"
)

// ErrMask is a set of error bits carried by every value in the machine.
// Each bit is an independent *lane*: error propagation is purely bitwise
// (OR on read, overwrite on write, AND-NOT on clear), so all 64 lanes
// propagate through the same dataflow at once without interacting.
//
// The estimator's lane table (internal/core) uses one of two layouts:
//
//   - Plane layout (Lanes <= 1, classic and Multiplex): bit s is
//     monitored structure s's plane — one live emulated error per
//     structure at a time, the hardware the paper describes.
//   - Lane layout (Lanes > 1): bit i is lane i's experiment. Up to 64
//     independent experiments ride the same cycle loop; the lane table,
//     not the bit index, says which structure each bit was injected into.
//
// The pipeline is layout-agnostic — Inject, ClearPlanes and
// PlanePopulations take the bits explicitly, and the failure hook gets
// the whole mask — except for Stats.Failures, a per-plane counter kept
// only under the plane layout (see SetLaneLayout).
type ErrMask uint64

// MaxLanes is the number of independent error-bit lanes an ErrMask
// carries — the concurrency ceiling of the multi-lane injection engine.
const MaxLanes = 64

// LaneBit returns the single-bit mask of lane i.
func LaneBit(lane int) ErrMask { return 1 << uint(lane) }

// Structure identifies a monitored processor structure. The first four
// are the paper's evaluation targets; the rest are extensions enabled by
// the same machinery.
type Structure uint8

// Monitored structures.
const (
	// StructIQ is the issue-queue complex (FXU + FPU + branch queues).
	StructIQ Structure = iota
	// StructReg is the integer physical register file.
	StructReg
	// StructFXU is the fixed-point (integer) functional units.
	StructFXU
	// StructFPU is the floating-point functional units.
	StructFPU
	// StructFPReg is the floating-point physical register file
	// (extension: not evaluated in the paper, same machinery).
	StructFPReg
	// StructLSU is the load-store units (extension).
	StructLSU
	// StructDTLB and StructITLB are the translation lookaside buffers —
	// the structures the paper could NOT evaluate because errors in them
	// live far longer than M = 1000 cycles (Section 4, footnote 1). The
	// machinery is identical; the M-sweep ablation shows the undercount.
	StructDTLB
	StructITLB

	// NumStructures is the number of monitored structures.
	NumStructures = int(StructITLB) + 1
)

var structureNames = [NumStructures]string{"iq", "reg", "fxu", "fpu", "fpreg", "lsu", "dtlb", "itlb"}

// String returns the short lowercase name used throughout reports.
func (s Structure) String() string {
	if int(s) < NumStructures {
		return structureNames[s]
	}
	return fmt.Sprintf("structure(%d)", uint8(s))
}

// Bit returns the error-bit plane for s.
func (s Structure) Bit() ErrMask { return 1 << s }

// PaperStructures are the four structures evaluated in the paper, in its
// presentation order (Figure 3a–d).
var PaperStructures = []Structure{StructIQ, StructReg, StructFXU, StructFPU}

// ParseStructure resolves a short name ("iq", "reg", "fxu", "fpu",
// "fpreg", "lsu") to a Structure.
func ParseStructure(name string) (Structure, error) {
	for i, n := range structureNames {
		if n == name {
			return Structure(i), nil
		}
	}
	return 0, fmt.Errorf("pipeline: unknown structure %q (have %v)", name, structureNames)
}

// QueueID identifies an issue queue (Table 1: a shared
// load/store/integer queue, an FPU queue, and a branch queue).
type QueueID uint8

// Issue queues.
const (
	QFXU QueueID = iota // integer + load/store
	QFPU
	QBr
	// NumQueues is the number of issue queues.
	NumQueues = int(QBr) + 1
	// QNone marks instructions that bypass the queues (nops).
	QNone QueueID = 255
)

var queueNames = [NumQueues]string{"fxu-q", "fpu-q", "br-q"}

// String names the queue.
func (q QueueID) String() string {
	if int(q) < NumQueues {
		return queueNames[q]
	}
	return "no-q"
}

// FUKind identifies a functional-unit class.
type FUKind uint8

// Functional-unit kinds.
const (
	FUInt FUKind = iota
	FUFP
	FULS
	FUBr
	// NumFUKinds is the number of functional-unit kinds.
	NumFUKinds = int(FUBr) + 1
	// FUNone marks instructions that need no unit (nops).
	FUNone FUKind = 255
)

var fuNames = [NumFUKinds]string{"int", "fp", "ls", "br"}

// String names the unit kind.
func (k FUKind) String() string {
	if int(k) < NumFUKinds {
		return fuNames[k]
	}
	return "no-fu"
}

// route maps an instruction class to its issue queue and unit kind.
func route(c isa.Class) (QueueID, FUKind) {
	switch c {
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		return QFXU, FUInt
	case isa.ClassLoad, isa.ClassStore:
		return QFXU, FULS
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		return QFPU, FUFP
	case isa.ClassBranch:
		return QBr, FUBr
	default: // nop
		return QNone, FUNone
	}
}

// logicStructure maps a unit kind to the Structure monitoring it, or
// NumStructures if unmonitored.
func logicStructure(k FUKind) Structure {
	switch k {
	case FUInt:
		return StructFXU
	case FUFP:
		return StructFPU
	case FULS:
		return StructLSU
	default:
		return Structure(NumStructures)
	}
}

// RegFileID distinguishes the two physical register files in events.
type RegFileID uint8

// Register files.
const (
	IntFile RegFileID = iota
	FPFile
)

// String names the file.
func (f RegFileID) String() string {
	if f == IntFile {
		return "int"
	}
	return "fp"
}

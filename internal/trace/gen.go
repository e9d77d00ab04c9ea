package trace

import (
	"errors"
	"fmt"

	"avfsim/internal/isa"
)

// Mix gives the relative weights of non-branch instruction classes in a
// synthesized stream. Weights need not sum to 1; they are normalized.
// Branch frequency is implied by block length (one branch terminates each
// basic block).
type Mix struct {
	IntALU, IntMul, IntDiv float64
	FPAdd, FPMul, FPDiv    float64
	Load, Store            float64
	Nop                    float64
}

func (m Mix) weights() [9]float64 {
	return [9]float64{m.IntALU, m.IntMul, m.IntDiv, m.FPAdd, m.FPMul, m.FPDiv, m.Load, m.Store, m.Nop}
}

var mixClasses = [9]isa.Class{
	isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
	isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv,
	isa.ClassLoad, isa.ClassStore, isa.ClassNop,
}

// fpShare returns the fraction of value-producing traffic that is
// floating-point, used to type load destinations and store data.
func (m Mix) fpShare() float64 {
	fp := m.FPAdd + m.FPMul + m.FPDiv
	in := m.IntALU + m.IntMul + m.IntDiv
	if fp+in == 0 {
		return 0
	}
	return fp / (fp + in)
}

// Params parameterizes the synthetic workload generator. Each Params value
// describes one program phase: a static control-flow graph of basic blocks
// walked with per-block branch biases, register dataflow with a geometric
// dependency-distance distribution and a controllable dead-value fraction,
// and a data working set accessed with a mixture of streaming and random
// references. These are the knobs that drive AVF (Section 1 of the paper:
// utilization, dead values, speculation, occupancy).
type Params struct {
	// Seed makes the stream deterministic.
	Seed uint64
	// Blocks is the number of static basic blocks (code footprint).
	Blocks int
	// BlockLen is the mean number of non-branch instructions per block.
	BlockLen int
	// Mix weights the non-branch instruction classes.
	Mix Mix
	// DepDistMean is the mean register dependency distance, in
	// instructions (geometric distribution).
	DepDistMean float64
	// DeadFrac is the probability that a produced value is never
	// consumed (a dead value — a first-order source of masking).
	DeadFrac float64
	// WorkingSet is the data working-set size in bytes.
	WorkingSet uint64
	// SeqFrac is the fraction of blocks whose memory accesses stream
	// sequentially (the rest access the working set at random).
	SeqFrac float64
	// TakenBias is the probability that a biased static branch is
	// biased toward taken.
	TakenBias float64
	// BiasedFrac is the fraction of static branches that are strongly
	// biased (predictable); the rest have a uniform random bias.
	BiasedFrac float64
	// PCBase and DataBase set the code and data address regions, so
	// distinct phases occupy distinct code/data footprints.
	PCBase   uint64
	DataBase uint64
}

// Validate reports the first invalid parameter, or nil.
func (p *Params) Validate() error {
	switch {
	case p.Blocks < 1:
		return errors.New("trace: Params.Blocks must be >= 1")
	case p.BlockLen < 1:
		return errors.New("trace: Params.BlockLen must be >= 1")
	case p.DepDistMean < 1:
		return errors.New("trace: Params.DepDistMean must be >= 1")
	case p.DeadFrac < 0 || p.DeadFrac >= 1:
		return errors.New("trace: Params.DeadFrac must be in [0,1)")
	case p.WorkingSet < 64:
		return errors.New("trace: Params.WorkingSet must be >= 64 bytes")
	case p.SeqFrac < 0 || p.SeqFrac > 1:
		return errors.New("trace: Params.SeqFrac must be in [0,1]")
	case p.TakenBias < 0 || p.TakenBias > 1:
		return errors.New("trace: Params.TakenBias must be in [0,1]")
	case p.BiasedFrac < 0 || p.BiasedFrac > 1:
		return errors.New("trace: Params.BiasedFrac must be in [0,1]")
	}
	w := p.Mix.weights()
	sum := 0.0
	for _, x := range w {
		if x < 0 {
			return errors.New("trace: Mix weights must be non-negative")
		}
		sum += x
	}
	if sum <= 0 {
		return errors.New("trace: Mix weights must not all be zero")
	}
	return nil
}

// Register conventions used by the generator. Pointer registers hold base
// addresses and are refreshed by occasional ALU writes; data registers
// carry computed values.
const (
	numPtrRegs     = 4  // r1..r4
	firstDataReg   = 5  // r5..r31 are the integer data pool
	ptrUpdateEvery = 16 // mean instructions between pointer refreshes
	histCap        = 64 // recent-writer lookback window
	maxDepDist     = 48 // cap for the geometric dependency distance
)

// Thresholds (see drawThreshold) of the generator's fixed-probability
// draws.
var (
	src2IntDraw   = drawThreshold(0.7)
	src2FPDraw    = drawThreshold(0.8)
	ptrUpdateDraw = drawThreshold(1.0 / ptrUpdateEvery)
)

// histRing indexes one register file's live writers: the registers whose
// latest write was live and lies within the file's last histCap live
// writes, linked newest to oldest. Links and ends hold reg+1, so 0 ends
// the list and the zero value is empty.
type histRing struct {
	older, newer   [64]uint8
	born           [64]uint64 // live-write count when linked; 0 = unlinked
	newest, oldest uint8
	pushes         uint64
}

// write records a write to reg: the previous value's entry goes, and a
// live value becomes the newest entry. Entries more than histCap live
// writes old expire from the tail.
func (h *histRing) write(reg isa.Reg, live bool) {
	if h.born[reg] != 0 {
		h.unlink(uint8(reg) + 1)
	}
	if !live {
		return
	}
	h.pushes++
	if h.oldest != 0 && h.pushes-h.born[h.oldest-1] >= histCap {
		h.unlink(h.oldest)
	}
	r := uint8(reg) + 1
	h.born[reg] = h.pushes
	h.older[reg], h.newer[reg] = h.newest, 0
	if h.newest != 0 {
		h.newer[h.newest-1] = r
	} else {
		h.oldest = r
	}
	h.newest = r
}

func (h *histRing) unlink(r uint8) {
	i := r - 1
	o, n := h.older[i], h.newer[i]
	if o != 0 {
		h.newer[o-1] = n
	} else {
		h.oldest = n
	}
	if n != 0 {
		h.older[n-1] = o
	} else {
		h.newest = o
	}
	h.born[i] = 0
}

// pick returns the register written dist live entries ago (1 = most
// recent), falling back to the newest when fewer are live. Returns
// RegNone when none is.
func (h *histRing) pick(dist int) isa.Reg {
	r := h.newest
	for ; dist > 1 && r != 0; dist-- {
		r = h.older[r-1]
	}
	if r == 0 {
		r = h.newest
	}
	if r == 0 {
		return isa.RegNone
	}
	return isa.Reg(r - 1)
}

// block is one static basic block of the synthetic program.
type block struct {
	idx     int
	pc      uint64
	classes []isa.Class
	// seqMem selects streaming (true) or random (false) data access.
	seqMem    bool
	region    uint64 // base offset of this block's data region
	takenDraw uint64 // drawThreshold of the taken probability
	// takenTo and fallTo are successor block indices.
	takenTo, fallTo int
}

// Generator synthesizes a deterministic dynamic instruction stream from
// Params. It implements Source and Filler and never ends.
type Generator struct {
	p      Params
	rng    *rng
	blocks []block
	cumMix [9]float64
	// Thresholds (see drawThreshold) of the per-instruction draws: the
	// dependency distance's success probability 1/DepDistMean, a dead
	// value, and an FP load or store.
	depDraw, deadDraw, fpDraw uint64

	cur, slot int
	seqCursor []uint64 // per-block streaming cursor

	intHist, fpHist histRing

	count int64 // instructions generated
}

// NewGenerator builds the static program for p and returns a ready stream.
func NewGenerator(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, rng: newRNG(p.Seed), depDraw: drawThreshold(1 / p.DepDistMean),
		deadDraw: drawThreshold(p.DeadFrac), fpDraw: drawThreshold(p.Mix.fpShare())}

	w := p.Mix.weights()
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	acc := 0.0
	for i, x := range w {
		acc += x / sum
		g.cumMix[i] = acc
	}
	g.cumMix[8] = 1.0 // guard against float drift

	g.buildProgram()
	g.seqCursor = make([]uint64, len(g.blocks))
	return g, nil
}

// MustNewGenerator is NewGenerator, panicking on invalid Params. For tests
// and examples with known-good constants.
func MustNewGenerator(p Params) *Generator {
	g, err := NewGenerator(p)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Generator) buildProgram() {
	p := g.p
	g.blocks = make([]block, p.Blocks)
	pc := p.PCBase
	// Region granularity for streaming blocks: divide the working set so
	// multiple streams coexist.
	regions := uint64(8)
	regionSize := p.WorkingSet / regions
	if regionSize < 64 {
		regionSize = 64
	}
	for i := range g.blocks {
		n := 1 + g.rng.intn(2*p.BlockLen-1) // mean ~BlockLen
		b := &g.blocks[i]
		b.idx = i
		b.pc = pc
		b.classes = make([]isa.Class, n)
		for j := range b.classes {
			b.classes[j] = g.drawClass()
		}
		pc += uint64(n+1) * 4 // +1 for the terminating branch
		b.seqMem = g.rng.bool(p.SeqFrac)
		b.region = (uint64(g.rng.intn(int(regions))) * regionSize) % p.WorkingSet
		bias := 0.2
		if g.rng.bool(p.BiasedFrac) {
			if g.rng.bool(p.TakenBias) {
				bias = 0.96
			} else {
				bias = 0.04
			}
		} else {
			bias += 0.6 * g.rng.float64()
		}
		b.takenDraw = drawThreshold(bias)
		b.takenTo = g.rng.intn(p.Blocks)
		b.fallTo = (i + 1) % p.Blocks
	}
}

func (g *Generator) drawClass() isa.Class {
	x := g.rng.float64()
	for i, c := range g.cumMix {
		if x < c {
			return mixClasses[i]
		}
	}
	return isa.ClassNop
}

// Count returns the number of instructions generated so far.
func (g *Generator) Count() int64 { return g.count }

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

// Next implements Source. The stream is infinite.
func (g *Generator) Next() (isa.Inst, bool) {
	var buf [1]isa.Inst
	g.Fill(buf[:])
	return buf[0], true
}

// Fill implements Filler; the stream never ends.
func (g *Generator) Fill(buf []isa.Inst) int {
	for i := range buf {
		b := &g.blocks[g.cur]
		if g.slot < len(b.classes) {
			g.synth(&buf[i], b, b.classes[g.slot], b.pc+uint64(g.slot)*4)
			g.slot++
		} else {
			g.synthBranch(&buf[i], b)
			g.slot = 0
		}
	}
	g.count += int64(len(buf))
	return len(buf)
}

// synth builds one non-branch instruction in place.
func (g *Generator) synth(in *isa.Inst, b *block, class isa.Class, pc uint64) {
	*in = isa.Inst{PC: pc, Class: class, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	switch class {
	case isa.ClassNop:
		// no operands
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		in.Src1 = g.pickInt()
		if g.rng.below(src2IntDraw) {
			in.Src2 = g.pickInt()
		}
		if class == isa.ClassIntALU && g.rng.below(ptrUpdateDraw) {
			// Address-computation write refreshing a pointer register.
			in.Dst = isa.IntReg(1 + g.rng.intn(numPtrRegs))
			g.write(in.Dst, false) // pointers are consumed via loads/stores
		} else {
			in.Dst = g.allocInt()
			g.write(in.Dst, !g.rng.below(g.deadDraw))
		}
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		in.Src1 = g.pickFP()
		if g.rng.below(src2FPDraw) {
			in.Src2 = g.pickFP()
		}
		in.Dst = g.allocFP()
		g.write(in.Dst, !g.rng.below(g.deadDraw))
	case isa.ClassLoad:
		in.Src1 = g.ptrReg()
		in.Addr = g.address(b)
		if g.rng.below(g.fpDraw) {
			in.Dst = g.allocFP()
		} else {
			in.Dst = g.allocInt()
		}
		g.write(in.Dst, !g.rng.below(g.deadDraw))
	case isa.ClassStore:
		if g.rng.below(g.fpDraw) {
			in.Src1 = g.pickFP()
		} else {
			in.Src1 = g.pickInt()
		}
		in.Src2 = g.ptrReg()
		in.Addr = g.address(b)
	default:
		panic(fmt.Sprintf("trace: synth cannot build class %v", class))
	}
}

// synthBranch builds the block-terminating branch and advances the walk.
func (g *Generator) synthBranch(in *isa.Inst, b *block) {
	*in = isa.Inst{
		PC:    b.pc + uint64(len(b.classes))*4,
		Class: isa.ClassBranch,
		Dst:   isa.RegNone,
		Src1:  g.pickInt(),
		Src2:  isa.RegNone,
	}
	in.Taken = g.rng.below(b.takenDraw)
	if in.Taken {
		in.Target = g.blocks[b.takenTo].pc
		g.cur = b.takenTo
	} else {
		g.cur = b.fallTo
	}
}

// write records that reg now holds a fresh value; live values become
// visible to future source picks, dead ones do not (they will simply be
// overwritten — the generator's mechanism for controllable dead-value
// masking).
func (g *Generator) write(reg isa.Reg, live bool) {
	if reg.IsFP() {
		g.fpHist.write(reg, live)
	} else {
		g.intHist.write(reg, live)
	}
}

// allocInt picks a destination from the integer data pool.
func (g *Generator) allocInt() isa.Reg {
	return isa.IntReg(firstDataReg + g.rng.intn(isa.NumIntArchRegs-firstDataReg))
}

// allocFP picks a destination from the FP pool.
func (g *Generator) allocFP() isa.Reg {
	return isa.FPReg(g.rng.intn(isa.NumFPArchRegs))
}

// pickInt returns an integer source register at a geometric dependency
// distance, falling back to r5 before any value has been produced.
func (g *Generator) pickInt() isa.Reg {
	d := g.rng.geometric(g.depDraw, maxDepDist)
	if r := g.intHist.pick(d); r != isa.RegNone {
		return r
	}
	return isa.IntReg(firstDataReg)
}

// pickFP is pickInt for the floating-point file.
func (g *Generator) pickFP() isa.Reg {
	d := g.rng.geometric(g.depDraw, maxDepDist)
	if r := g.fpHist.pick(d); r != isa.RegNone {
		return r
	}
	return isa.FPReg(0)
}

// ptrReg returns one of the pointer registers.
func (g *Generator) ptrReg() isa.Reg {
	return isa.IntReg(1 + g.rng.intn(numPtrRegs))
}

// address produces the effective address for a memory access in block b:
// streaming blocks advance a per-block cursor through their region; random
// blocks sample the whole working set.
func (g *Generator) address(b *block) uint64 {
	if b.seqMem {
		cur := g.seqCursor[b.idx]
		g.seqCursor[b.idx] = cur + 8
		off := (b.region + cur) % g.p.WorkingSet
		return g.p.DataBase + (off &^ 7)
	}
	off := g.rng.next64() % g.p.WorkingSet
	return g.p.DataBase + (off &^ 7)
}

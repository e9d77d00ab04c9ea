package trace

import (
	"math"
	"testing"

	"avfsim/internal/isa"
)

func testParams() Params {
	return Params{
		Seed:        42,
		Blocks:      64,
		BlockLen:    8,
		Mix:         Mix{IntALU: 0.40, IntMul: 0.03, IntDiv: 0.01, FPAdd: 0.05, FPMul: 0.04, FPDiv: 0.01, Load: 0.25, Store: 0.12, Nop: 0.02},
		DepDistMean: 4,
		DeadFrac:    0.15,
		WorkingSet:  1 << 16,
		SeqFrac:     0.5,
		TakenBias:   0.6,
		BiasedFrac:  0.8,
		PCBase:      0x10000,
		DataBase:    0x1000000,
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := MustNewGenerator(testParams())
	b := MustNewGenerator(testParams())
	for i := 0; i < 10000; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if !oka || !okb {
			t.Fatal("generator ended")
		}
		if ia != ib {
			t.Fatalf("divergence at %d: %v vs %v", i, ia, ib)
		}
	}
	if a.Count() != 10000 {
		t.Errorf("Count = %d", a.Count())
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p1, p2 := testParams(), testParams()
	p2.Seed = 43
	a, b := MustNewGenerator(p1), MustNewGenerator(p2)
	same := 0
	for i := 0; i < 1000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestGeneratorInstructionsWellFormed(t *testing.T) {
	g := MustNewGenerator(testParams())
	p := g.Params()
	for i := 0; i < 50000; i++ {
		in, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		if !in.Class.Valid() {
			t.Fatalf("inst %d: invalid class %d", i, in.Class)
		}
		if in.HasDst() && !in.Dst.Valid() {
			t.Fatalf("inst %d: invalid dst %v", i, in.Dst)
		}
		for _, s := range in.Sources(nil) {
			if !s.Valid() {
				t.Fatalf("inst %d: invalid source %v", i, s)
			}
		}
		switch in.Class {
		case isa.ClassLoad:
			if !in.HasDst() || in.Src1 == isa.RegNone {
				t.Fatalf("inst %d: load lacks dst or base: %v", i, in)
			}
			if in.Addr < p.DataBase || in.Addr >= p.DataBase+p.WorkingSet {
				t.Fatalf("inst %d: load addr %#x outside working set", i, in.Addr)
			}
			if in.Addr%8 != 0 {
				t.Fatalf("inst %d: unaligned address %#x", i, in.Addr)
			}
		case isa.ClassStore:
			if in.HasDst() {
				t.Fatalf("inst %d: store has dst: %v", i, in)
			}
			if in.Src1 == isa.RegNone || in.Src2 == isa.RegNone {
				t.Fatalf("inst %d: store lacks data or base: %v", i, in)
			}
		case isa.ClassBranch:
			if in.HasDst() {
				t.Fatalf("inst %d: branch has dst", i)
			}
			if in.Taken && in.Target == 0 {
				t.Fatalf("inst %d: taken branch without target", i)
			}
		case isa.ClassNop:
			if in.HasDst() || in.Src1 != isa.RegNone || in.Src2 != isa.RegNone {
				t.Fatalf("inst %d: nop with operands: %v", i, in)
			}
		}
		if in.Class.IsFP() {
			if in.HasDst() && !in.Dst.IsFP() {
				t.Fatalf("inst %d: FP op writes int reg", i)
			}
		}
	}
}

func TestGeneratorBranchTargetsAreBlockStarts(t *testing.T) {
	g := MustNewGenerator(testParams())
	starts := map[uint64]bool{}
	for i := range g.blocks {
		starts[g.blocks[i].pc] = true
	}
	for i := 0; i < 20000; i++ {
		in, _ := g.Next()
		if in.Class == isa.ClassBranch && in.Taken && !starts[in.Target] {
			t.Fatalf("inst %d: branch target %#x is not a block start", i, in.Target)
		}
	}
}

func TestGeneratorMixConverges(t *testing.T) {
	p := testParams()
	p.BlockLen = 20 // dilute branch share for a cleaner mix comparison
	p.Blocks = 512  // enough static slots that hot-block skew averages out
	g := MustNewGenerator(p)
	counts := map[isa.Class]int{}
	const n = 200000
	nonBranch := 0
	for i := 0; i < n; i++ {
		in, _ := g.Next()
		counts[in.Class]++
		if in.Class != isa.ClassBranch {
			nonBranch++
		}
	}
	// Within non-branch instructions, the realized shares should be close
	// to the requested mix.
	want := map[isa.Class]float64{
		isa.ClassIntALU: 0.40, isa.ClassLoad: 0.25, isa.ClassStore: 0.12,
		isa.ClassFPAdd: 0.05,
	}
	// Tolerance is loose: execution frequency concentrates on hot blocks,
	// so dynamic shares wander from the static mix (as in real programs).
	for c, w := range want {
		got := float64(counts[c]) / float64(nonBranch)
		if math.Abs(got-w) > 0.04 {
			t.Errorf("class %v share = %.3f, want ~%.3f", c, got, w)
		}
	}
	// Branch share should be roughly 1/(BlockLen+1).
	brShare := float64(counts[isa.ClassBranch]) / float64(n)
	if brShare < 0.02 || brShare > 0.10 {
		t.Errorf("branch share = %.3f, expected near 1/(BlockLen+1)", brShare)
	}
}

func TestGeneratorDeadFractionControlsReuse(t *testing.T) {
	// With DeadFrac=0.6 many values are written and never read; verify by
	// replaying dataflow: count values overwritten without a read.
	deadShare := func(deadFrac float64) float64 {
		p := testParams()
		p.DeadFrac = deadFrac
		g := MustNewGenerator(p)
		lastWriteRead := map[isa.Reg]bool{}
		written := map[isa.Reg]bool{}
		deaths, writes := 0, 0
		for i := 0; i < 100000; i++ {
			in, _ := g.Next()
			for _, s := range in.Sources(nil) {
				lastWriteRead[s] = true
			}
			if in.HasDst() {
				if written[in.Dst] && !lastWriteRead[in.Dst] {
					deaths++
				}
				writes++
				written[in.Dst] = true
				lastWriteRead[in.Dst] = false
			}
		}
		return float64(deaths) / float64(writes)
	}
	low := deadShare(0.0)
	high := deadShare(0.6)
	if high <= low+0.2 {
		t.Errorf("dead-value share did not respond to DeadFrac: low=%.3f high=%.3f", low, high)
	}
}

func TestGeneratorPhaseAddressRegions(t *testing.T) {
	p := testParams()
	p.DataBase = 0x4000000
	p.PCBase = 0x200000
	g := MustNewGenerator(p)
	for i := 0; i < 5000; i++ {
		in, _ := g.Next()
		if in.PC < p.PCBase {
			t.Fatalf("PC %#x below base", in.PC)
		}
		if in.Class.IsMem() && in.Addr < p.DataBase {
			t.Fatalf("addr %#x below data base", in.Addr)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Blocks = 0 },
		func(p *Params) { p.BlockLen = 0 },
		func(p *Params) { p.DepDistMean = 0.5 },
		func(p *Params) { p.DeadFrac = 1.0 },
		func(p *Params) { p.DeadFrac = -0.1 },
		func(p *Params) { p.WorkingSet = 8 },
		func(p *Params) { p.SeqFrac = 1.5 },
		func(p *Params) { p.TakenBias = -1 },
		func(p *Params) { p.BiasedFrac = 2 },
		func(p *Params) { p.Mix = Mix{} },
		func(p *Params) { p.Mix.Load = -1 },
	}
	for i, mut := range bad {
		p := testParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewGenerator(p); err == nil {
			t.Errorf("NewGenerator accepted mutation %d", i)
		}
	}
}

func TestMustNewGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewGenerator should panic on invalid params")
		}
	}()
	MustNewGenerator(Params{})
}

func TestRNGDistributions(t *testing.T) {
	r := newRNG(7)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("float64 mean = %.4f", mean)
	}
	// geometric mean ~ target mean.
	gsum := 0
	for i := 0; i < n; i++ {
		gsum += r.geometric(drawThreshold(1.0/4), 100)
	}
	if gm := float64(gsum) / n; math.Abs(gm-4) > 0.15 {
		t.Errorf("geometric mean = %.3f, want ~4", gm)
	}
	if r.geometric(drawThreshold(1/0.5), 10) != 1 {
		t.Error("geometric with mean <= 1 should return 1")
	}
	// intn bounds.
	for i := 0; i < 1000; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	// zero seed still works.
	z := newRNG(0)
	if z.next64() == 0 && z.next64() == 0 {
		t.Error("zero-seeded rng looks broken")
	}
}

func TestHistRingSkipsOverwritten(t *testing.T) {
	var h histRing
	// Write r5 and r6 live, then overwrite r5 with a dead value. pick(1)
	// must be r6; with r5's value gone, pick(2) falls back to r6.
	h.write(isa.IntReg(5), true)
	h.write(isa.IntReg(6), true)
	h.write(isa.IntReg(5), false)
	if got := h.pick(1); got != isa.IntReg(6) {
		t.Errorf("pick(1) = %v, want r6", got)
	}
	if got := h.pick(2); got != isa.IntReg(6) {
		t.Errorf("pick(2) should fall back to newest live, got %v", got)
	}
	var empty histRing
	if got := empty.pick(1); got != isa.RegNone {
		t.Errorf("empty ring pick = %v", got)
	}
}

// scanRing is the stale-skip history ring the live-writer index replaced,
// kept as the oracle for it: a ring of the last histCap live writes, each
// tagged with its write's sequence number, scanned newest first past
// entries whose register has been written since.
type scanRing struct {
	buf [histCap]struct {
		reg isa.Reg
		seq uint32
	}
	head, n int
	lastSeq [64]uint32
	seq     uint32
}

func (s *scanRing) write(reg isa.Reg, live bool) {
	s.seq++
	s.lastSeq[reg] = s.seq
	if !live {
		return
	}
	s.buf[s.head].reg, s.buf[s.head].seq = reg, s.seq
	s.head = (s.head + 1) % histCap
	if s.n < histCap {
		s.n++
	}
}

func (s *scanRing) pick(dist int) isa.Reg {
	seen := 0
	newest := isa.RegNone
	for i := 1; i <= s.n; i++ {
		e := s.buf[(s.head-i+histCap*2)%histCap]
		if s.lastSeq[e.reg] != e.seq {
			continue
		}
		if newest == isa.RegNone {
			newest = e.reg
		}
		if seen++; seen >= dist {
			return e.reg
		}
	}
	return newest
}

// TestHistRingMatchesScan drives the live-writer index and the scan
// oracle with the same random write streams: live and dead data writes,
// dead pointer refreshes, and runs long enough that entries expire. Every
// distance must pick the same register after every write.
func TestHistRingMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		r := newRNG(seed)
		var h histRing
		var o scanRing
		// Few registers make live entries outlast histCap pushes; many
		// make most entries go stale inside the window.
		regs := 1 + r.intn(isa.NumIntArchRegs-firstDataReg)
		deadFrac := r.float64()
		for i := 0; i < 2000; i++ {
			var reg isa.Reg
			live := !r.bool(deadFrac)
			if r.bool(0.06) {
				reg, live = isa.IntReg(1+r.intn(numPtrRegs)), false
			} else {
				reg = isa.IntReg(firstDataReg + r.intn(regs))
			}
			h.write(reg, live)
			o.write(reg, live)
			for d := 1; d <= maxDepDist+2; d++ {
				if got, want := h.pick(d), o.pick(d); got != want {
					t.Fatalf("seed %d write %d: pick(%d) = %v, scan oracle %v", seed, i, d, got, want)
				}
			}
		}
	}
}

// floatGeometric is geometric as it compared draws before the integer
// threshold: the float draw against p = 1/mean.
func floatGeometric(r *rng, mean float64, cap int) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.float64() >= p && n < cap {
		n++
	}
	return n
}

// TestGeometricMatchesFloatCompare checks the integer-threshold geometric
// against the float comparison draw for draw: the same samples and the
// same generator state after each, at every profile's dependency mean and
// at the edges.
func TestGeometricMatchesFloatCompare(t *testing.T) {
	for _, mean := range []float64{1, 1.5, 2.5, 3, 3.5, 4, 5, 7, 8, 10, 48} {
		// A random draw lands on the threshold with odds 2^-53, so check
		// the boundary itself: it is the least draw that ends the loop.
		p, th := 1/mean, drawThreshold(1/mean)
		if float64(th)/(1<<53) < p || float64(th-1)/(1<<53) >= p {
			t.Fatalf("mean %v: threshold %d is not the least draw u with u/2^53 >= %v", mean, th, p)
		}
		for seed := uint64(0); seed < 32; seed++ {
			a, b := newRNG(seed), newRNG(seed)
			for i := 0; i < 2000; i++ {
				got, want := a.geometric(th, maxDepDist), floatGeometric(b, mean, maxDepDist)
				if got != want || a.state != b.state {
					t.Fatalf("mean %v seed %d draw %d: geometric %d, float compare %d (state %#x vs %#x)",
						mean, seed, i, got, want, a.state, b.state)
				}
			}
		}
	}
}

// TestBelowMatchesBool checks the integer-threshold draw against the float
// one draw for draw, at the generator's fixed probabilities and the edges.
func TestBelowMatchesBool(t *testing.T) {
	for _, p := range []float64{0, 1.0 / ptrUpdateEvery, 0.04, 0.15, 1.0 / 3, 0.7, 0.8, 0.96, 1} {
		a, b := newRNG(11), newRNG(11)
		th := drawThreshold(p)
		for i := 0; i < 100_000; i++ {
			if got, want := a.below(th), b.bool(p); got != want {
				t.Fatalf("p %v draw %d: below %v, bool %v", p, i, got, want)
			}
		}
	}
}

func TestLoop(t *testing.T) {
	insts := []isa.Inst{
		{PC: 0, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
		{PC: 4, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
	}
	l := NewLoop(insts)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < 10; i++ {
		in, ok := l.Next()
		if !ok {
			t.Fatal("loop ended")
		}
		if want := insts[i%2]; in != want {
			t.Fatalf("iteration %d: %v, want %v", i, in, want)
		}
	}
}

func TestLoopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty loop accepted")
		}
	}()
	NewLoop(nil)
}

// nextOnly hides a Source's Fill method, so FillFrom takes its
// one-Next-per-instruction path.
type nextOnly struct{ Source }

// TestFillMatchesNext checks that filling blocks of 1, 7 and 64
// instructions yields the stream Next yields, through Fill directly and
// through FillFrom on both of its paths, and that FillFrom on a finite
// source ends in the middle of a block with a short count, then 0.
func TestFillMatchesNext(t *testing.T) {
	const n = 20_000
	for _, size := range []int{1, 7, 64} {
		for _, via := range []string{"Fill", "FillFrom", "FillFrom(Next)"} {
			ref := MustNewGenerator(testParams())
			g := MustNewGenerator(testParams())
			buf := make([]isa.Inst, size)
			for i := 0; i < n; i += size {
				var got int
				switch via {
				case "Fill":
					got = g.Fill(buf)
				case "FillFrom":
					got = FillFrom(g, buf)
				default:
					got = FillFrom(nextOnly{g}, buf)
				}
				if got != size {
					t.Fatalf("%s(%d) wrote %d", via, size, got)
				}
				for j, in := range buf {
					if want, _ := ref.Next(); in != want {
						t.Fatalf("%s(%d): instruction %d is %+v, Next gives %+v", via, size, i+j, in, want)
					}
				}
			}
			if g.Count() != ref.Count() {
				t.Errorf("%s(%d): Count %d, Next's twin %d", via, size, g.Count(), ref.Count())
			}
		}
	}

	insts := Collect(MustNewGenerator(testParams()), 100)
	for _, size := range []int{7, 64} {
		src := NewSliceSource(insts)
		buf := make([]isa.Inst, size)
		var got []isa.Inst
		for {
			k := FillFrom(src, buf)
			got = append(got, buf[:k]...)
			if k < size {
				if want := len(insts) % size; k != want {
					t.Errorf("block of %d: last fill wrote %d, want %d", size, k, want)
				}
				break
			}
		}
		if k := FillFrom(src, buf); k != 0 {
			t.Errorf("block of %d: fill after the end wrote %d", size, k)
		}
		if len(got) != len(insts) {
			t.Fatalf("block of %d: filled %d instructions, want %d", size, len(got), len(insts))
		}
		for i := range got {
			if got[i] != insts[i] {
				t.Fatalf("block of %d: instruction %d differs", size, i)
			}
		}
	}
}

package workload

import (
	"testing"

	"avfsim/internal/isa"
	"avfsim/internal/trace"
)

func TestSuiteMatchesPaperBenchmarks(t *testing.T) {
	want := []string{
		"ammp", "art", "bzip2", "equake", "facerec", "lucas",
		"mesa", "perlbmk", "sixtrack", "swim", "wupwise",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(names), len(want))
	}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, n, want[i])
		}
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d entries", len(suite))
	}
	for i, p := range suite {
		if p.Name != want[i] {
			t.Errorf("Suite()[%d] = %q", i, p.Name)
		}
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range Suite() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("bzip2")
	if err != nil || p.Name != "bzip2" {
		t.Fatalf("ByName(bzip2) = %v, %v", p, err)
	}
	if _, err := ByName("gcc"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// ByName returns fresh values: mutating one must not affect another.
	p.Phases[0].Insts = 1
	q, _ := ByName("bzip2")
	if q.Phases[0].Insts == 1 {
		t.Error("ByName returned shared state")
	}
}

func TestProfileSourceDeterminism(t *testing.T) {
	p, _ := ByName("mesa")
	a := p.MustSource(1)
	b := p.MustSource(1)
	for i := 0; i < 20000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia != ib {
			t.Fatalf("divergence at %d", i)
		}
	}
	// A different seed gives a different stream.
	c := p.MustSource(2)
	diff := 0
	d := p.MustSource(1)
	for i := 0; i < 1000; i++ {
		ic, _ := c.Next()
		id, _ := d.Next()
		if ic != id {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed had no effect")
	}
}

func TestPhaseSwitching(t *testing.T) {
	// Build a two-phase profile with tiny phases and check the stream
	// alternates between the phases' distinct PC regions.
	p1 := base(1)
	p2 := base(2)
	prof := &Profile{Name: "test", Phases: []Phase{
		mkPhase("a", 0, 1000, p1),
		mkPhase("b", 1, 1000, p2),
	}}
	src := prof.MustSource(0)
	regionOf := func(pc uint64) int {
		return int((pc - phasePCBase) / phasePCStride)
	}
	var seq []int
	last := -1
	for i := 0; i < 6000; i++ {
		in, ok := src.Next()
		if !ok {
			t.Fatal("source ended")
		}
		r := regionOf(in.PC)
		if r != last {
			seq = append(seq, r)
			last = r
		}
	}
	// 6000 insts over 1000-inst phases: expect region pattern 0,1,0,1,0,1.
	if len(seq) != 6 {
		t.Fatalf("phase switch pattern = %v", seq)
	}
	for i, r := range seq {
		if r != i%2 {
			t.Fatalf("phase switch pattern = %v", seq)
		}
	}
}

func TestPhasedSourceResumesGenerators(t *testing.T) {
	// When a phase is re-entered, it continues rather than restarting:
	// the second visit's instructions differ from the first visit's.
	p1 := base(1)
	prof := &Profile{Name: "test", Phases: []Phase{
		mkPhase("a", 0, 100, p1),
		mkPhase("b", 1, 100, base(2)),
	}}
	src := prof.MustSource(0)
	first := make([]isa.Inst, 100)
	for i := range first {
		first[i], _ = src.Next()
	}
	for i := 0; i < 100; i++ { // drain phase b
		src.Next()
	}
	second := make([]isa.Inst, 100)
	for i := range second {
		second[i], _ = src.Next()
	}
	same := 0
	for i := range first {
		if first[i] == second[i] {
			same++
		}
	}
	if same == len(first) {
		t.Error("phase restarted from scratch on re-entry")
	}
}

func TestValidateCatchesBrokenProfiles(t *testing.T) {
	cases := []*Profile{
		{Name: "", Phases: []Phase{{Name: "x", Params: base(1), Insts: 10}}},
		{Name: "x", Phases: nil},
		{Name: "x", Phases: []Phase{{Name: "p", Params: base(1), Insts: 0}}},
		{Name: "x", Phases: []Phase{{Name: "p", Params: trace.Params{}, Insts: 10}}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := p.Source(0); err == nil {
			t.Errorf("case %d: Source accepted invalid profile", i)
		}
	}
}

func TestScale(t *testing.T) {
	p, _ := ByName("ammp")
	s := Scale(p, 0.01)
	if s.Name != "ammp" || len(s.Phases) != len(p.Phases) {
		t.Fatal("Scale mangled profile")
	}
	for i := range s.Phases {
		want := int64(float64(p.Phases[i].Insts) * 0.01)
		if want < 1000 {
			want = 1000
		}
		if s.Phases[i].Insts != want {
			t.Errorf("phase %d scaled to %d, want %d", i, s.Phases[i].Insts, want)
		}
	}
	// Original untouched.
	q, _ := ByName("ammp")
	if p.Phases[0].Insts != q.Phases[0].Insts {
		t.Error("Scale mutated its input")
	}
	// Clamp floor.
	tiny := Scale(p, 1e-9)
	for _, ph := range tiny.Phases {
		if ph.Insts != 1000 {
			t.Errorf("floor clamp failed: %d", ph.Insts)
		}
	}
	if err := tiny.Validate(); err != nil {
		t.Errorf("scaled profile invalid: %v", err)
	}
}

func TestProfileDiversity(t *testing.T) {
	// The suite should span integer-heavy and FP-heavy behaviour: count
	// FP share over a prefix of each benchmark.
	fpShare := func(name string) float64 {
		p, _ := ByName(name)
		src := p.MustSource(0)
		fp, n := 0, 30000
		for i := 0; i < n; i++ {
			in, _ := src.Next()
			if in.Class.IsFP() {
				fp++
			}
		}
		return float64(fp) / float64(n)
	}
	if s := fpShare("bzip2"); s > 0.05 {
		t.Errorf("bzip2 FP share = %.3f, should be integer-dominated", s)
	}
	if s := fpShare("sixtrack"); s < 0.2 {
		t.Errorf("sixtrack FP share = %.3f, should be FP-dominated", s)
	}
}

// TestFillMatchesNext checks that a profile's source filled in blocks of
// 1, 7 and 64 instructions yields the stream Next yields, across more
// than three wraps of the phase schedule, so blocks straddle every phase
// boundary.
func TestFillMatchesNext(t *testing.T) {
	for _, name := range []string{"ammp", "bzip2"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p = Scale(p, 0.05)
		var schedule int64
		for _, ph := range p.Phases {
			schedule += ph.Insts
		}
		n := 3*schedule + 1000
		for _, size := range []int{1, 7, 64} {
			ref := p.MustSource(3)
			f, ok := p.MustSource(3).(trace.Filler)
			if !ok {
				t.Fatal("profile source does not implement trace.Filler")
			}
			buf := make([]isa.Inst, size)
			for i := int64(0); i < n; i += int64(size) {
				if got := f.Fill(buf); got != size {
					t.Fatalf("%s: Fill(%d) wrote %d", name, size, got)
				}
				for j, in := range buf {
					if want, _ := ref.Next(); in != want {
						t.Fatalf("%s: Fill(%d) instruction %d is %+v, Next gives %+v", name, size, i+int64(j), in, want)
					}
				}
			}
		}
	}
}

package core

import (
	"testing"

	"avfsim/internal/pipeline"
)

// TestOnConcludeScanFiresAtBoundaries: the observer's Boundary fires exactly
// once per injection boundary in the classic engine — never between
// boundaries — and always with the pipeline's current cycle.
func TestOnConcludeScanFiresAtBoundaries(t *testing.T) {
	const M = 100
	p := newPipe(t, &loopTrace{})
	var cycles []int64
	e, err := NewEstimator(p, Options{M: M, N: 50,
		Observer: funcObserver{boundary: func(c int64) { cycles = append(cycles, c) }}})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	for i := 0; i < 2000; i++ {
		p.Step()
		e.Tick()
		if n := len(cycles); n > 0 && cycles[n-1] == p.Cycle() && i == 0 {
			// first boundary fires on the first Tick
			continue
		}
	}
	if len(cycles) == 0 {
		t.Fatal("hook never fired across 2000 cycles with M=100")
	}
	for i := 1; i < len(cycles); i++ {
		if got := cycles[i] - cycles[i-1]; got != M {
			t.Fatalf("boundary %d: gap %d cycles, want exactly M=%d", i, got, M)
		}
	}
	want := 1 + (2000-int(cycles[0]))/M
	if len(cycles) != want {
		t.Fatalf("hook fired %d times, want %d (one per boundary)", len(cycles), want)
	}
}

// TestOnConcludeScanFiresLaneMode: in lane mode Boundary fires at every
// lane event boundary (where the fused scans run), once per boundary.
func TestOnConcludeScanFiresLaneMode(t *testing.T) {
	const M = 50
	p := newPipe(t, &loopTrace{})
	var cycles []int64
	e, err := NewEstimator(p, Options{M: M, N: 100, Lanes: 16,
		Structures: []pipeline.Structure{pipeline.StructReg, pipeline.StructIQ},
		Observer: funcObserver{boundary: func(c int64) {
			if n := len(cycles); n > 0 && cycles[n-1] == c {
				t.Fatalf("hook fired twice at cycle %d", c)
			}
			if c != p.Cycle() {
				t.Fatalf("hook cycle %d != pipeline cycle %d", c, p.Cycle())
			}
			cycles = append(cycles, c)
		}}})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	for i := 0; i < 2000; i++ {
		p.Step()
		e.Tick()
	}
	if len(cycles) < 2000/M-1 {
		t.Fatalf("hook fired %d times across 2000 cycles, want >= %d", len(cycles), 2000/M-1)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("hook cycles not strictly increasing: %v", cycles[i-1:i+1])
		}
	}
}

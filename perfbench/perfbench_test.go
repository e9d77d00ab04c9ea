package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(xs[:3]); got != 4 {
		t.Errorf("median of 3 = %v, want 4", got)
	}
	if got := iqrShare([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("iqrShare of equal values = %v", got)
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

// TestParseProfile parses a real runtime/pprof CPU profile and finds the
// function that burned the CPU in it.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if strings.HasSuffix(p.funcName(fn), ".spin") {
					hits += s.count
				}
			}
		}
	}
	if hits == 0 {
		t.Fatalf("no samples in spin among %d samples", len(p.samples))
	}
}

func TestDupPickCoversEverySpec(t *testing.T) {
	seen := map[int]int{}
	for k := 0; k < 800; k++ {
		i := dupPick(7, k)
		if i < 0 || i >= dupSpecs {
			t.Fatalf("dupPick = %d", i)
		}
		seen[i]++
	}
	if len(seen) != dupSpecs {
		t.Fatalf("only %d of %d specs drawn", len(seen), dupSpecs)
	}
	if dupPick(7, 3) != dupPick(7, 3) {
		t.Fatal("dupPick is not deterministic")
	}
}

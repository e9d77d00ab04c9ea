package core

import (
	"testing"
	"time"

	"avfsim/internal/pipeline"
)

// TestOnIntervalSpanFires verifies the observer's Interval fires once
// per completed interval per structure with monotone, contiguous wall
// times, delivering exactly the estimates the batch accessors hold.
func TestOnIntervalSpanFires(t *testing.T) {
	type fire struct {
		est        Estimate
		start, end time.Time
	}
	var spans []fire
	p := newPipe(t, &loopTrace{})
	e, err := NewEstimator(p, Options{
		M: 10, N: 5,
		Structures: []pipeline.Structure{pipeline.StructIQ, pipeline.StructReg},
		Observer: funcObserver{interval: func(est Estimate, ws, we time.Time) {
			spans = append(spans, fire{est, ws, we})
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	drive(p, e, 500)

	if len(spans) == 0 {
		t.Fatal("Interval never fired")
	}
	batch := 0
	for _, s := range e.Structures() {
		batch += len(e.Estimates(s))
	}
	if len(spans) != batch {
		t.Fatalf("Interval fired %d times, batch has %d estimates", len(spans), batch)
	}
	lastEnd := map[pipeline.Structure]time.Time{}
	seen := map[pipeline.Structure]int{}
	for i, f := range spans {
		if want := e.Estimates(f.est.Structure)[seen[f.est.Structure]]; f.est != want {
			t.Fatalf("span %d estimate %+v != batch %+v", i, f.est, want)
		}
		seen[f.est.Structure]++
		if f.end.Before(f.start) {
			t.Fatalf("span %d wall end %v before start %v", i, f.end, f.start)
		}
		if prev, ok := lastEnd[f.est.Structure]; ok && f.start.Before(prev) {
			t.Fatalf("structure %v interval %d wall start %v precedes previous end %v",
				f.est.Structure, f.est.Interval, f.start, prev)
		}
		lastEnd[f.est.Structure] = f.end
	}
}

// TestObserverIntervalUngated: core knows nothing of checkpoints, so
// Interval fires for every interval from 0 on — a resumed job's
// observer drops what it already delivered — and each interval's wall
// window starts where the previous one ended, the first at or after
// the estimator was built.
func TestObserverIntervalUngated(t *testing.T) {
	type fire struct {
		est        Estimate
		start, end time.Time
	}
	var fires []fire
	p := newPipe(t, &loopTrace{})
	built := time.Now()
	e, err := NewEstimator(p, Options{
		M: 10, N: 5,
		Structures: []pipeline.Structure{pipeline.StructIQ},
		Observer: funcObserver{interval: func(est Estimate, ws, we time.Time) {
			fires = append(fires, fire{est, ws, we})
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Attach()
	drive(p, e, 500)

	if len(fires) < 4 {
		t.Fatalf("Interval fired %d times across 500 cycles, want >= 4", len(fires))
	}
	if len(fires) != len(e.Estimates(pipeline.StructIQ)) {
		t.Fatalf("Interval fired %d times, batch has %d estimates", len(fires), len(e.Estimates(pipeline.StructIQ)))
	}
	prevEnd := built
	for i, f := range fires {
		if f.est.Interval != i {
			t.Fatalf("Interval event %d carries interval %d", i, f.est.Interval)
		}
		if f.start.Before(prevEnd) || f.end.Before(f.start) {
			t.Fatalf("interval %d wall window [%v, %v] goes back before %v", i, f.start, f.end, prevEnd)
		}
		if i > 0 && !f.start.Equal(prevEnd) {
			t.Fatalf("interval %d wall start %v != previous end %v", i, f.start, prevEnd)
		}
		prevEnd = f.end
	}
}

package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/isa"
	"avfsim/internal/trace"
	"avfsim/internal/workload"
)

// callLog records every hook call and recorder event of one pipeline, in
// order, with all arguments.
type callLog struct {
	calls  []int64
	events []ErrEvent
}

func (l *callLog) add(xs ...int64) { l.calls = append(l.calls, xs...) }

func (l *callLog) RecordErrEvent(ev ErrEvent) { l.events = append(l.events, ev) }

func (l *callLog) hooks() Hooks {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	return Hooks{
		OnRetire: func(ev *RetireEvent) {
			l.add(1, ev.Seq, int64(ev.Class), int64(ev.PC), ev.DispatchCycle, ev.IssueCycle,
				ev.RetireCycle, int64(ev.Queue), int64(ev.QueueEntry), int64(ev.FU), int64(ev.Unit),
				ev.ExecStart, ev.SrcProducers[0], ev.SrcProducers[1], int64(ev.DstFile),
				int64(ev.DstPhys), int64(ev.Err), b(ev.Mispredicted))
		},
		OnFailure: func(s Structure, seq, cycle int64, class isa.Class) {
			l.add(2, int64(s), seq, cycle, int64(class))
		},
		OnRegWrite: func(file RegFileID, phys int16, cycle, writerSeq int64) {
			l.add(3, int64(file), int64(phys), cycle, writerSeq)
		},
		OnRegRead: func(file RegFileID, phys int16, cycle, readerSeq int64) {
			l.add(4, int64(file), int64(phys), cycle, readerSeq)
		},
		OnRegFree: func(file RegFileID, phys int16, cycle int64) {
			l.add(5, int64(file), int64(phys), cycle)
		},
		OnTLBAccess: func(s Structure, entry int, cycle int64, refill bool) {
			l.add(6, int64(s), int64(entry), cycle, b(refill))
		},
	}
}

// quiet is the part of the pipeline state that moving an instruction
// changes (the fields StepUntil compares): equal before and after a Step
// means the cycle was idle.
func quiet(p *Pipeline) [5]int64 {
	return [5]int64{p.retired, p.seq, int64(p.instBuf.len()),
		int64(p.iqPopulation()), int64(len(p.executing))}
}

// TestStepUntilMatchesStep drives one pipeline with plain Steps and a
// twin through StepUntil with random horizons, injecting the same errors
// into both at some horizons. At every horizon the two must have made the
// same hook calls and recorder events, in the same order with the same
// arguments, and report the same Snapshot. Every profile runs with and
// without a flight recorder, and logic injections are armed on idle
// cycles so the skip must not swallow the armed cycle.
func TestStepUntilMatchesStep(t *testing.T) {
	const cycles = 20_000
	armedIdle := 0
	for _, name := range workload.Names() {
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prof = workload.Scale(prof, 0.05)
		for _, rec := range []bool{false, true} {
			cfg := config.Default()
			var logs [2]callLog
			var ps [2]*Pipeline
			for i := range ps {
				if ps[i], err = New(&cfg, prof.MustSource(1)); err != nil {
					t.Fatal(err)
				}
				ps[i].SetHooks(logs[i].hooks())
				if rec {
					ps[i].SetRecorder(&logs[i])
				}
			}
			plain, fast := ps[0], ps[1]
			rng := rand.New(rand.NewSource(int64(len(name))))
			skipped := int64(0)
			armed := false
			for fast.Cycle() < cycles {
				h := fast.Cycle() + 1 + rng.Int63n(300)
				for fast.Cycle() < h {
					before := fast.Cycle()
					if !fast.StepUntil(h) {
						t.Fatalf("%s: StepUntil drained an endless trace", name)
					}
					skipped += fast.Cycle() - before - 1
				}
				if fast.Cycle() != h {
					t.Fatalf("%s: StepUntil(%d) overshot to cycle %d", name, h, fast.Cycle())
				}
				for plain.Cycle() < h {
					q := quiet(plain)
					plain.Step()
					if armed && quiet(plain) == q {
						armedIdle++
					}
					armed = false
				}
				if !reflect.DeepEqual(logs[0], logs[1]) {
					t.Fatalf("%s rec=%v: hook streams diverge by cycle %d\n%v\n%v", name, rec, h, logs[0].calls, logs[1].calls)
				}
				if a, b := plain.Snapshot(), fast.Snapshot(); a != b {
					t.Fatalf("%s rec=%v: at cycle %d Step gives %+v, StepUntil %+v", name, rec, h, a, b)
				}
				logs[0], logs[1] = callLog{}, callLog{}
				switch rng.Intn(4) {
				case 0:
					s := Structure(rng.Intn(NumStructures))
					idx := rng.Intn(plain.StructureEntries(s))
					plain.Inject(s, idx, s.Bit())
					fast.Inject(s, idx, s.Bit())
				case 1:
					// A logic injection, armed for the next cycle.
					s := []Structure{StructFXU, StructFPU, StructLSU}[rng.Intn(3)]
					idx := rng.Intn(plain.StructureEntries(s))
					plain.Inject(s, idx, s.Bit())
					fast.Inject(s, idx, s.Bit())
					armed = true
				}
			}
			if skipped == 0 {
				t.Errorf("%s rec=%v: StepUntil never skipped a cycle", name, rec)
			}
		}
	}
	if armedIdle == 0 {
		t.Error("no logic injection was armed on an idle cycle")
	}

	// Finite traces, one of them empty: StepUntil must stop where Step
	// stops, not skip past the cycle on which the pipeline drains.
	prof, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 5000} {
		insts := trace.Collect(prof.MustSource(1), n)
		plain, fast := newTestPipeline(t, insts), newTestPipeline(t, insts)
		for plain.Step() {
		}
		for fast.StepUntil(math.MaxInt64) {
		}
		if a, b := plain.Snapshot(), fast.Snapshot(); a != b {
			t.Fatalf("%d-instruction trace: Step drains at %+v, StepUntil at %+v", n, a, b)
		}
	}
}

// Package flight is the cycle-level flight recorder of the AVF
// estimation service: a bounded ring buffer of error-bit events emitted
// by the pipeline (inject, copy-on-read, overwrite, logic-mask,
// retire-at-failure-point, ...) and the reconstruction of those events
// into per-injection *propagation traces* — the DAG of hops an emulated
// error takes from its injection site to the failure point that counts
// it, or to the overwrite/idle-mask that kills it.
//
// The recorder answers the question the estimator's scalar output
// cannot: not "what fraction of injections failed" but "*how* did this
// injection fail" — which register carried the bit, which instruction
// read it, where it was overwritten. Each reconstructed trace reconciles
// exactly with Algorithm 1's bookkeeping: a closed window with at least
// one retire-fail hop is precisely an injection the estimator counted as
// a potential failure, so summing failure-outcome traces reproduces the
// failures/N numerator.
package flight

import (
	"encoding/json"
	"io"
	"sync"

	"avfsim/internal/pipeline"
)

// DefaultCap is the default event capacity of a Recorder: large enough
// to hold every event of a short job (tens of thousands of injections),
// small enough (~5 MB) to attach one per job without thought.
const DefaultCap = 1 << 16

// Recorder is a bounded flight recorder of pipeline error-bit events.
// It implements pipeline.ErrRecorder; when the ring is full the OLDEST
// events are dropped (flight-recorder semantics: the most recent history
// survives), and the loss is counted rather than silent.
type Recorder struct {
	mu      sync.Mutex
	buf     []pipeline.ErrEvent // power-of-two ring
	mask    int
	head    int // index of the oldest event
	size    int
	dropped int64
	total   int64
}

// New builds a recorder holding up to capacity events (rounded up to a
// power of two; DefaultCap if capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Recorder{buf: make([]pipeline.ErrEvent, n), mask: n - 1}
}

// RecordErrEvent implements pipeline.ErrRecorder. It is called
// synchronously from the simulation loop; the cost is one mutex and one
// struct copy into the preallocated ring.
func (r *Recorder) RecordErrEvent(ev pipeline.ErrEvent) {
	r.mu.Lock()
	if r.size == len(r.buf) {
		r.head = (r.head + 1) & r.mask
		r.size--
		r.dropped++
	}
	r.buf[(r.head+r.size)&r.mask] = ev
	r.size++
	r.total++
	r.mu.Unlock()
}

// Snapshot copies out the retained events, oldest first, and the number
// of events dropped at the cap. Safe to call while recording.
func (r *Recorder) Snapshot() (events []pipeline.ErrEvent, dropped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	events = make([]pipeline.ErrEvent, r.size)
	for i := 0; i < r.size; i++ {
		events[i] = r.buf[(r.head+i)&r.mask]
	}
	return events, r.dropped
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Dropped returns the number of events lost at the cap.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Total returns the number of events ever recorded.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Hop is one wire-form event of a propagation trace. Sentinel numeric
// fields are -1 ("seq":-1 = no instruction involved).
type Hop struct {
	// Kind is the event kind's kebab-case name (pipeline.ErrEventKind).
	Kind  string `json:"kind"`
	Cycle int64  `json:"cycle"`
	// Seq is the dynamic instruction involved; SrcSeq the producer of a
	// read-copy's value.
	Seq    int64 `json:"seq"`
	SrcSeq int64 `json:"src_seq"`
	// File/Phys locate register hops; Entry locates structure entries,
	// units, and TLB entries. Index 0 is valid, so absence is -1, not
	// omission.
	File  string `json:"file,omitempty"`
	Phys  int16  `json:"phys"`
	Entry int    `json:"entry"`
	// Class is the retiring instruction's class on retire hops.
	Class string `json:"class,omitempty"`
}

// Trace is one reconstructed injection window: every hop the injected
// plane's bits took between Inject and the estimator's ClearPlanes, plus
// the DAG of propagation edges between hops.
type Trace struct {
	// Structure is the injected plane; Entry its entry/unit index.
	Structure string `json:"structure"`
	Entry     int    `json:"entry"`
	// Lane is the error-bit lane the injection rode. Under the plane
	// layout it equals the structure's bit index; under the multi-lane
	// engine it is the experiment's lane id.
	Lane int `json:"lane"`
	// InjectCycle..ConcludeCycle delimit the window (ConcludeCycle -1
	// while the window is still open at snapshot time).
	InjectCycle   int64 `json:"inject_cycle"`
	ConcludeCycle int64 `json:"conclude_cycle"`
	// Outcome is failure | masked | pending | open, matching the
	// estimator's classification (open: the run ended or the snapshot
	// was taken before the window concluded).
	Outcome string `json:"outcome"`
	// ResidualBits is the plane population at conclusion (pending > 0).
	ResidualBits int `json:"residual_bits,omitempty"`
	// Failures counts retire-fail hops in the window; the estimator
	// counts the window once iff Failures > 0.
	Failures int `json:"failures"`
	// Hops are the window's events in cycle order (hop 0 is the inject).
	Hops []Hop `json:"hops"`
	// Edges is the propagation DAG over hop indexes: [from, to] means
	// hop `to` received its error bits from hop `from`.
	Edges [][2]int `json:"edges,omitempty"`
}

// Outcome values.
const (
	OutcomeFailure = "failure"
	OutcomeMasked  = "masked"
	OutcomePending = "pending"
	OutcomeOpen    = "open"
)

// regKey identifies a physical register across both files.
func regKey(file pipeline.RegFileID, phys int16) int32 {
	return int32(file)<<16 | int32(uint16(phys))
}

// window accumulates one in-progress injection trace during
// reconstruction, with the last-holder maps the edge builder uses.
type window struct {
	t Trace
	// Last hop index holding the plane's bit at each location kind.
	bySeq  map[int64]int // in-flight instruction
	byReg  map[int32]int // physical register
	byTLB  map[int]int   // TLB entry (structure-scoped: one TLB per plane)
	line   int           // iTLB fetch line holder, -1 if none
	armed  int           // armed logic injection holder, -1 if none
	inject int           // hop 0
}

func newWindow(ev pipeline.ErrEvent, lane int) *window {
	w := &window{
		t: Trace{
			Structure:     ev.Structure.String(),
			Entry:         ev.Entry,
			Lane:          lane,
			InjectCycle:   ev.Cycle,
			ConcludeCycle: -1,
			Outcome:       OutcomeOpen,
		},
		bySeq: map[int64]int{},
		byReg: map[int32]int{},
		byTLB: map[int]int{},
		line:  -1, armed: -1, inject: 0,
	}
	w.addHop(ev)
	// Seed the holder for the injection site.
	switch {
	case ev.Phys >= 0:
		w.byReg[regKey(ev.File, ev.Phys)] = 0
	case ev.Seq >= 0:
		w.bySeq[ev.Seq] = 0
	}
	s := ev.Structure
	if s == pipeline.StructDTLB || s == pipeline.StructITLB {
		w.byTLB[ev.Entry] = 0
	}
	if _, ok := pipeline.UnitKind(s); ok {
		w.armed = 0
	}
	return w
}

// addHop appends ev as a hop and returns its index.
func (w *window) addHop(ev pipeline.ErrEvent) int {
	h := Hop{
		Kind: ev.Kind.String(), Cycle: ev.Cycle,
		Seq: ev.Seq, SrcSeq: ev.SrcSeq, Phys: ev.Phys, Entry: ev.Entry,
	}
	if ev.Phys >= 0 {
		h.File = ev.File.String()
	}
	switch ev.Kind {
	case pipeline.EvRetireFail, pipeline.EvRetireDrop:
		h.Class = ev.Class.String()
	}
	w.t.Hops = append(w.t.Hops, h)
	return len(w.t.Hops) - 1
}

func (w *window) edge(from, to int) {
	if from >= 0 {
		w.t.Edges = append(w.t.Edges, [2]int{from, to})
	}
}

// observe folds one event into the window, updating holders and edges.
func (w *window) observe(ev pipeline.ErrEvent) {
	i := w.addHop(ev)
	switch ev.Kind {
	case pipeline.EvReadCopy:
		from, ok := w.byReg[regKey(ev.File, ev.Phys)]
		if !ok {
			from = w.inject
		}
		w.edge(from, i)
		w.bySeq[ev.Seq] = i
	case pipeline.EvWriteCopy:
		from, ok := w.bySeq[ev.Seq]
		if !ok {
			from = w.inject
		}
		w.edge(from, i)
		w.byReg[regKey(ev.File, ev.Phys)] = i
	case pipeline.EvRegOverwrite:
		if from, ok := w.byReg[regKey(ev.File, ev.Phys)]; ok {
			w.edge(from, i)
			delete(w.byReg, regKey(ev.File, ev.Phys))
		} else {
			w.edge(w.inject, i)
		}
	case pipeline.EvTLBCopy:
		from, ok := w.byTLB[ev.Entry]
		if !ok {
			from = w.inject
		}
		w.edge(from, i)
		if ev.Seq >= 0 {
			w.bySeq[ev.Seq] = i // dTLB: bits land in the load/store
		} else {
			w.line = i // iTLB: bits land on the current fetch line
		}
	case pipeline.EvTLBRefill:
		if from, ok := w.byTLB[ev.Entry]; ok {
			w.edge(from, i)
			delete(w.byTLB, ev.Entry)
		}
	case pipeline.EvFetchCopy:
		w.edge(w.line, i)
		w.bySeq[ev.Seq] = i
	case pipeline.EvLogicLand:
		w.edge(w.armed, i)
		w.armed = -1
		w.bySeq[ev.Seq] = i
	case pipeline.EvLogicMask:
		w.edge(w.armed, i)
		w.armed = -1
	case pipeline.EvRetireFail:
		if from, ok := w.bySeq[ev.Seq]; ok {
			w.edge(from, i)
		} else {
			w.edge(w.inject, i)
		}
		w.t.Failures++
	case pipeline.EvRetireDrop:
		if from, ok := w.bySeq[ev.Seq]; ok {
			w.edge(from, i)
			delete(w.bySeq, ev.Seq)
		} else {
			w.edge(w.inject, i)
		}
	}
}

// close concludes the window at a clear-plane event.
func (w *window) close(ev pipeline.ErrEvent) Trace {
	w.addHop(ev)
	w.t.ConcludeCycle = ev.Cycle
	w.t.ResidualBits = ev.Pop
	switch {
	case w.t.Failures > 0:
		w.t.Outcome = OutcomeFailure
	case ev.Pop > 0:
		w.t.Outcome = OutcomePending
	default:
		w.t.Outcome = OutcomeMasked
	}
	return w.t
}

// Reconstruction groups an event stream into per-injection propagation
// traces. Orphans counts events that belonged to no open window — the
// signature of a ring that dropped a window's inject event.
type Reconstruction struct {
	Traces []Trace
	// Orphans counts events observed for a plane with no open window.
	Orphans int
	// Dropped echoes the recorder's drop counter at snapshot time.
	Dropped int64
}

// Reconstruct rebuilds propagation traces from an event stream (oldest
// first). Windows are keyed by error-bit *lane* — the set bit of the
// inject event's Mask — which subsumes both layouts: under the plane
// layout the bit index is the structure, under the multi-lane engine it
// is the experiment's lane, and in either case an event belongs to the
// open window of every lane set in its Mask. Inject opens a lane's
// window, clear-plane closes it. Windows still open when the stream ends
// are emitted with outcome "open" (ConcludeCycle -1).
func Reconstruct(events []pipeline.ErrEvent) *Reconstruction {
	rec := &Reconstruction{}
	var open [pipeline.MaxLanes]*window
	for _, ev := range events {
		switch ev.Kind {
		case pipeline.EvInject:
			lane := trailingZeros(uint64(ev.Mask))
			if w := open[lane]; w != nil {
				// A new injection before the previous clear should not
				// happen under Algorithm 1; close defensively as open.
				rec.Traces = append(rec.Traces, w.t)
			}
			open[lane] = newWindow(ev, lane)
		case pipeline.EvClearPlane:
			lane := trailingZeros(uint64(ev.Mask))
			if w := open[lane]; w != nil {
				rec.Traces = append(rec.Traces, w.close(ev))
				open[lane] = nil
			}
			// A clear with no open window is the estimator's routine
			// between-injection wipe of an already-truncated stream; not
			// an orphan worth counting.
		default:
			matched := false
			for m := uint64(ev.Mask); m != 0; m &= m - 1 {
				if w := open[trailingZeros(m)]; w != nil {
					w.observe(ev)
					matched = true
				}
			}
			if !matched {
				rec.Orphans++
			}
		}
	}
	for lane := 0; lane < pipeline.MaxLanes; lane++ {
		if w := open[lane]; w != nil {
			rec.Traces = append(rec.Traces, w.t)
		}
	}
	return rec
}

// trailingZeros avoids importing math/bits for these call sites.
func trailingZeros(m uint64) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}

// Traces snapshots the recorder and reconstructs its propagation
// traces.
func (r *Recorder) Traces() *Reconstruction {
	events, dropped := r.Snapshot()
	rec := Reconstruct(events)
	rec.Dropped = dropped
	return rec
}

// WriteNDJSON streams the reconstruction as NDJSON: one trace per line,
// followed — only when information was lost — by a summary line
// {"dropped_events": n, "orphan_events": k}.
func (rec *Reconstruction) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range rec.Traces {
		if err := enc.Encode(&rec.Traces[i]); err != nil {
			return err
		}
	}
	if rec.Dropped > 0 || rec.Orphans > 0 {
		return enc.Encode(map[string]int64{
			"dropped_events": rec.Dropped,
			"orphan_events":  int64(rec.Orphans),
		})
	}
	return nil
}

// Outcomes tallies traces by outcome.
func (rec *Reconstruction) Outcomes() map[string]int {
	out := map[string]int{}
	for i := range rec.Traces {
		out[rec.Traces[i].Outcome]++
	}
	return out
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
)

// Outcome classifies one concluded injection of Algorithm 1.
type Outcome uint8

const (
	// OutcomeFailure: a load, store, or branch retired carrying the
	// error bit within the M-cycle propagation window.
	OutcomeFailure Outcome = iota
	// OutcomeMasked: at M-expiry no error bit survived anywhere in the
	// machine — execution overwrote or discarded the error (survival).
	OutcomeMasked
	// OutcomePending: error bits were still live at M-expiry but had
	// not reached a failure point — the estimator charges no failure,
	// which undercounts structures with long propagation times
	// (Section 4's TLB caveat).
	OutcomePending

	// NumOutcomes is the number of injection outcomes.
	NumOutcomes = int(OutcomePending) + 1
)

var outcomeNames = [NumOutcomes]string{"failure", "masked", "pending"}

// String names the outcome.
func (o Outcome) String() string {
	if int(o) < NumOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Injection is the lifecycle record of one concluded injection:
// inject → propagate for M cycles → retire as failure, or expire
// masked/pending. The estimator hands one per injection to its
// observer (core.Observer.RecordInjection).
type Injection struct {
	// Structure is the injected structure; Entry the entry/unit index.
	Structure pipeline.Structure
	Entry     int
	// Interval is the estimation interval the injection counts toward.
	Interval int
	// InjectCycle and ConcludeCycle delimit the propagation window.
	InjectCycle, ConcludeCycle int64
	// Outcome classifies the conclusion.
	Outcome Outcome
	// Latency is the inject→failure propagation latency in cycles
	// (valid only when Outcome is OutcomeFailure).
	Latency int64
	// FailSeq and FailClass identify the retiring instruction that
	// carried the error to a failure point (valid only on failure).
	FailSeq   int64
	FailClass isa.Class
	// ErrBits is the live error-bit population of the structure's
	// plane at conclusion (before the estimator clears it).
	ErrBits int
	// Lane is the error-bit lane the injection rode, or -1 under the
	// classic one-plane-per-structure estimator.
	Lane int
}

// InjectionCounters aggregates injection outcomes into a Registry:
//
//	avfd_injections_total{structure,outcome}  per-structure outcome counts
//	avfd_errbit_population_hwm{structure}     live-error-bit high-water mark
//	avfd_injection_latency_cycles{structure}  inject→failure latency histogram
//
// Cells are pre-resolved into arrays so recording is two atomic adds
// plus (on failure) one histogram observe — no map lookups.
type InjectionCounters struct {
	outcomes [pipeline.NumStructures][NumOutcomes]*Counter
	hwm      [pipeline.NumStructures]*Gauge
	latency  [pipeline.NumStructures]*Histogram
}

// NewInjectionCounters registers the injection families in r.
func NewInjectionCounters(r *Registry) *InjectionCounters {
	ic := &InjectionCounters{}
	cv := r.CounterVec("avfd_injections_total",
		"Concluded emulated-error injections by structure and outcome (failure, masked, pending).",
		"structure", "outcome")
	gv := r.GaugeVec("avfd_errbit_population_hwm",
		"High-water mark of live error bits in a structure's plane at injection conclusion.",
		"structure")
	hv := r.HistogramVec("avfd_injection_latency_cycles",
		"Injection-to-failure propagation latency in cycles (failures only; Figure 2's distribution).",
		ExpBuckets(1, 4, 10), "structure")
	for s := 0; s < pipeline.NumStructures; s++ {
		name := pipeline.Structure(s).String()
		for o := 0; o < NumOutcomes; o++ {
			ic.outcomes[s][o] = cv.With(name, Outcome(o).String())
		}
		ic.hwm[s] = gv.With(name)
		ic.latency[s] = hv.With(name)
	}
	return ic
}

// RecordInjection aggregates one record.
func (ic *InjectionCounters) RecordInjection(rec Injection) {
	ic.outcomes[rec.Structure][rec.Outcome].Inc()
	ic.hwm[rec.Structure].Max(float64(rec.ErrBits))
	if rec.Outcome == OutcomeFailure {
		ic.latency[rec.Structure].Observe(float64(rec.Latency))
	}
}

// Outcomes returns the aggregated count for (structure, outcome).
func (ic *InjectionCounters) Outcomes(s pipeline.Structure, o Outcome) int64 {
	return ic.outcomes[s][o].Value()
}

// DefaultTraceCap bounds a JobTracer's record buffer. At the paper's
// scale one job is 4 structures × 1000 injections × 10 intervals =
// 40k records (~56 B each), so the default holds several paper-scale
// jobs; beyond it records are counted as dropped instead of growing
// without bound.
const DefaultTraceCap = 1 << 17

// JobTracer retains per-injection records for one job
// (served as NDJSON by GET /v1/jobs/{id}/trace) and forwards each
// record to optional shared InjectionCounters.
type JobTracer struct {
	counters *InjectionCounters // may be nil
	limit    int

	mu      sync.Mutex
	recs    []Injection
	dropped int64
}

// NewJobTracer builds a tracer retaining up to limit records
// (DefaultTraceCap if limit <= 0). counters may be nil.
func NewJobTracer(counters *InjectionCounters, limit int) *JobTracer {
	if limit <= 0 {
		limit = DefaultTraceCap
	}
	return &JobTracer{counters: counters, limit: limit}
}

// RecordInjection retains one record, or counts it dropped at the cap.
func (t *JobTracer) RecordInjection(rec Injection) {
	if t.counters != nil {
		t.counters.RecordInjection(rec)
	}
	t.mu.Lock()
	if len(t.recs) < t.limit {
		t.recs = append(t.recs, rec)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Dropped returns the number of records dropped at the retention cap —
// the ring-saturation signal behind avfd_trace_records_dropped_total.
func (t *JobTracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns a copy of the retained records and the number
// dropped at the cap.
func (t *JobTracer) Snapshot() (recs []Injection, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Injection(nil), t.recs...), t.dropped
}

// TraceRecord is the NDJSON wire form of one Injection.
type TraceRecord struct {
	Structure     string `json:"structure"`
	Entry         int    `json:"entry"`
	Interval      int    `json:"interval"`
	InjectCycle   int64  `json:"inject_cycle"`
	ConcludeCycle int64  `json:"conclude_cycle"`
	Outcome       string `json:"outcome"`
	LatencyCycles int64  `json:"latency_cycles,omitempty"`
	FailSeq       int64  `json:"fail_seq,omitempty"`
	FailClass     string `json:"fail_class,omitempty"`
	ErrBits       int    `json:"err_bits,omitempty"`
	// Lane is omitted for the classic estimator (lane -1).
	Lane *int `json:"lane,omitempty"`
}

// Wire converts an Injection to its NDJSON form.
func (rec Injection) Wire() TraceRecord {
	tr := TraceRecord{
		Structure:     rec.Structure.String(),
		Entry:         rec.Entry,
		Interval:      rec.Interval,
		InjectCycle:   rec.InjectCycle,
		ConcludeCycle: rec.ConcludeCycle,
		Outcome:       rec.Outcome.String(),
		ErrBits:       rec.ErrBits,
	}
	if rec.Outcome == OutcomeFailure {
		tr.LatencyCycles = rec.Latency
		tr.FailSeq = rec.FailSeq
		tr.FailClass = rec.FailClass.String()
	}
	if rec.Lane >= 0 {
		lane := rec.Lane
		tr.Lane = &lane
	}
	return tr
}

// WriteNDJSON streams the retained records, one JSON object per line.
// When records were dropped at the cap, a final summary line
// {"dropped": n} reports the loss instead of silently truncating.
func (t *JobTracer) WriteNDJSON(w io.Writer) error {
	recs, dropped := t.Snapshot()
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec.Wire()); err != nil {
			return err
		}
	}
	if dropped > 0 {
		return enc.Encode(map[string]int64{"dropped": dropped})
	}
	return nil
}

// Package obs is the observability layer of the avfd estimation
// service: a stdlib-only metrics registry (atomic counters, gauges, and
// fixed-bucket histograms with Prometheus-text and JSON expositions),
// an injection-lifecycle tracer for the online estimator, structured
// logging helpers, and HTTP server middleware.
//
// The paper's contribution is *online* monitoring — AVF estimates
// produced while the workload runs — so the service instrumenting it
// must itself be observable at near-zero cost: every metric cell is a
// single atomic, registration is separated from the hot path (callers
// hold *Counter/*Gauge/*Histogram handles), and the injection tracer
// is reached through the estimator's nil-checkable observer, so a
// disabled estimator pays one branch.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// kind is a metric family's type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

// Counter is a monotonically increasing integer metric cell.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// atomicFloat is a float64 with atomic add/store via CAS on the bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Gauge is a float64 metric cell that can go up and down.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Max raises the gauge to v if v is larger (high-water marks).
func (g *Gauge) Max(v float64) {
	for {
		old := g.v.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.v.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: counts per upper bound
// (cumulative only at exposition), plus sum and count. Each bucket
// additionally retains the most recent exemplar — the trace ID of an
// observation that landed in it — so a latency spike in an exposition
// links back to a concrete trace.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	ex     []atomic.Pointer[Exemplar]
	sum    atomicFloat
	n      atomic.Int64
}

// Exemplar links a histogram bucket to the trace of a recent
// observation. Exposed in the JSON snapshot and /v1/stats quantiles;
// deliberately absent from the Prometheus text output, which stays
// plain 0.0.4.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
	UnixMS  int64   `json:"unix_ms"`
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le is inclusive)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveEx records one value and, when traceID is non-empty, replaces
// the containing bucket's exemplar. One pointer store beyond Observe;
// with an empty traceID it is exactly Observe.
func (h *Histogram) ObserveEx(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	if traceID != "" && h.ex != nil {
		h.ex[i].Store(&Exemplar{TraceID: traceID, Value: v, UnixMS: time.Now().UnixMilli()})
	}
}

// exemplar returns bucket i's exemplar (nil when none was attached).
func (h *Histogram) exemplar(i int) *Exemplar {
	if h.ex == nil || i < 0 || i >= len(h.ex) {
		return nil
	}
	return h.ex[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor× the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefSecondsBuckets spans HTTP-handler latencies (seconds).
var DefSecondsBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// series is one labeled cell of a family. Exactly one of the value
// fields is set, matching the family kind; the fn variants sample a
// callback at exposition time (for counters/gauges kept elsewhere as
// plain atomics, e.g. the scheduler's).
type series struct {
	vals []string
	c    *Counter
	cf   func() int64
	g    *Gauge
	gf   func() float64
	h    *Histogram
}

// family is one named metric with a fixed label-name set.
type family struct {
	name, help string
	k          kind
	labels     []string
	bounds     []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

const keySep = "\x1f"

func (f *family) cell(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, keySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{vals: append([]string(nil), vals...)}
	switch f.k {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = &Histogram{
			bounds: f.bounds,
			counts: make([]atomic.Int64, len(f.bounds)+1),
			ex:     make([]atomic.Pointer[Exemplar], len(f.bounds)+1),
		}
	}
	f.series[key] = s
	return s
}

// setFunc replaces the cell for vals with a sampled callback.
func (f *family) setFunc(vals []string, cf func() int64, gf func() float64) {
	s := f.cell(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	s.c, s.g, s.cf, s.gf = nil, nil, cf, gf
}

func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

// Registry holds metric families and renders expositions. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family registers (or fetches) a family, panicking on a shape clash —
// duplicate registration with a different type, label set, or buckets
// is a programming error, as in every metrics library.
func (r *Registry) family(name, help string, k kind, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.k != k || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, k: k,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: map[string]*series{},
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterFunc registers an unlabeled counter sampled from fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.CounterVec(name, help).WithFunc(fn)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// GaugeFunc registers an unlabeled gauge sampled from fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeVec(name, help).WithFunc(fn)
}

// Histogram registers (or fetches) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// With returns the counter cell for the given label values.
func (v *CounterVec) With(vals ...string) *Counter { return v.f.cell(vals).c }

// WithFunc makes the cell for vals sample fn at exposition time.
func (v *CounterVec) WithFunc(fn func() int64, vals ...string) {
	v.f.setFunc(vals, fn, nil)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// With returns the gauge cell for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge { return v.f.cell(vals).g }

// WithFunc makes the cell for vals sample fn at exposition time.
func (v *GaugeVec) WithFunc(fn func() float64, vals ...string) {
	v.f.setFunc(vals, nil, fn)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefSecondsBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: metric %s buckets not sorted", name))
	}
	return &HistogramVec{r.family(name, help, kindHistogram, bounds, labels)}
}

// With returns the histogram cell for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram { return v.f.cell(vals).h }

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*family, len(names))
	for i, n := range names {
		out[i] = r.fams[n]
	}
	return out
}

// escapeHelp escapes a HELP line per the Prometheus text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {a="x",b="y"} from parallel name/value slices,
// optionally appending an extra pair (the histogram "le" label).
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(vals[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

func (s *series) counterValue() int64 {
	if s.cf != nil {
		return s.cf()
	}
	return s.c.Value()
}

func (s *series) gaugeValue() float64 {
	if s.gf != nil {
		return s.gf()
	}
	return s.g.Value()
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, kindNames[f.k])
		for _, s := range f.snapshotSeries() {
			switch f.k {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, s.vals, "", ""), s.counterValue())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.vals, "", ""), formatFloat(s.gaugeValue()))
			case kindHistogram:
				var cum int64
				for i, bound := range f.bounds {
					cum += s.h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.vals, "le", formatFloat(bound)), cum)
				}
				cum += s.h.counts[len(f.bounds)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.vals, "le", "+Inf"), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.vals, "", ""), formatFloat(s.h.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.vals, "", ""), cum)
			}
		}
	}
}

// SeriesSnapshot is one series of the JSON exposition. Value is set for
// counters and gauges; Count/Sum/Buckets for histograms (bucket counts
// are per-bucket, not cumulative; the "+Inf" bucket is last).
type SeriesSnapshot struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *int64            `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// BucketSnapshot is one histogram bucket ("le" as a string so "+Inf"
// survives JSON). Exemplar, when present, names the trace of the most
// recent observation that landed in the bucket.
type BucketSnapshot struct {
	LE       string    `json:"le"`
	Count    int64     `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// FamilySnapshot is one metric family of the JSON exposition.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every family for the JSON exposition, sorted by
// name.
func (r *Registry) Snapshot() []FamilySnapshot {
	fams := r.sortedFamilies()
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: kindNames[f.k], Help: f.help}
		for _, s := range f.snapshotSeries() {
			ss := SeriesSnapshot{}
			if len(f.labels) > 0 {
				ss.Labels = map[string]string{}
				for i, n := range f.labels {
					ss.Labels[n] = s.vals[i]
				}
			}
			switch f.k {
			case kindCounter:
				v := float64(s.counterValue())
				ss.Value = &v
			case kindGauge:
				v := s.gaugeValue()
				ss.Value = &v
			case kindHistogram:
				n, sum := s.h.Count(), s.h.Sum()
				ss.Count, ss.Sum = &n, &sum
				for i, bound := range f.bounds {
					ss.Buckets = append(ss.Buckets, BucketSnapshot{LE: formatFloat(bound), Count: s.h.counts[i].Load(), Exemplar: s.h.exemplar(i)})
				}
				ss.Buckets = append(ss.Buckets, BucketSnapshot{LE: "+Inf", Count: s.h.counts[len(f.bounds)].Load(), Exemplar: s.h.exemplar(len(f.bounds))})
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// TextHandler serves the Prometheus text exposition (GET /metrics).
func (r *Registry) TextHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b bytes.Buffer
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(b.Bytes())
	})
}

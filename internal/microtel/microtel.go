// Package microtel is the microarchitectural telemetry layer: it turns
// the estimator's existing conclusion-boundary scans into occupancy
// residency histograms, injection coverage maps, and confidence
// surfaces, with the same contract as the flight recorder and spans —
// zero cost when off, bounded and gated when on.
//
// Three surfaces, one collector, which is a core.Observer: attach it as
// core.Options.Observer (or experiment.RunConfig.Observer) and the
// estimator binds it and feeds all three.
//
//   - Occupancy residency: at every injection boundary (Boundary, where
//     the estimator already runs its fused ClearPlanes/PlanePopulations
//     scans) the collector samples pipeline.Occupancies — an O(1) read
//     of incrementally-maintained counters — into an exact per-structure
//     histogram of entry occupancy. The per-cycle hot path gains no new
//     work; an unattached collector costs nothing.
//
//   - Injection coverage: every concluded injection (RecordInjection)
//     lands in a (structure × entry) outcome table, a (structure ×
//     cycle-bucket) outcome table, and per-lane utilization counters.
//     Cycle buckets are bounded: when a run outgrows the fixed bucket
//     budget the bucket width doubles and counts fold in place, so
//     memory is O(structures × entries + structures × maxCycleBuckets)
//     regardless of run length.
//
//   - Confidence: every AVF estimate (Interval) is annotated with its
//     standard error and a Wilson score interval, streamed alongside the
//     point estimate and retained per structure for the aggregate
//     surfaces.
//
// All storage is preallocated at Bind time; the record/sample paths
// perform no allocations (see TestCollectorTickZeroAllocs).
package microtel

import (
	"sync"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

const (
	// DefaultBucketCycles is the initial coverage cycle-bucket width.
	DefaultBucketCycles = 1 << 10
	// maxCycleBuckets bounds the per-structure cycle-bucket table; runs
	// that outgrow it double the bucket width and fold counts in place.
	maxCycleBuckets = 512
)

// Config parameterizes a Collector. The zero value is usable.
type Config struct {
	// BucketCycles is the initial coverage cycle-bucket width
	// (DefaultBucketCycles if <= 0). Widths double as needed to keep
	// the bucket table bounded, so this only sets the finest grain.
	BucketCycles int64
	// Z is the normal quantile for Wilson intervals (DefaultZ if 0).
	Z float64
	// Metrics, when non-nil, mirrors the collector into the shared
	// Prometheus registry (avfd_microtel_* families).
	Metrics *obs.MicrotelMetrics
}

// Collector accumulates microarchitectural telemetry for one run; it is
// a core.Observer. All methods are safe for concurrent use: the
// simulation goroutine records while HTTP handlers snapshot.
type Collector struct {
	cfg Config

	mu      sync.Mutex
	p       *pipeline.Pipeline
	structs []pipeline.Structure
	lanes   int

	entries [pipeline.NumStructures]int
	bound   [pipeline.NumStructures]bool
	counts  [pipeline.NumStructures]int // Occupancies scratch

	// Occupancy residency: occ[s][k] counts boundary samples that saw
	// exactly k live entries in s (exact distribution — structures are
	// small, so len(occ[s]) == entries+1).
	samples   int64
	lastCycle int64
	occ       [pipeline.NumStructures][]int64
	occSum    [pipeline.NumStructures]int64

	// Coverage map.
	cov          [pipeline.NumStructures][][obs.NumOutcomes]int64 // entry × outcome
	covered      [pipeline.NumStructures]int
	outcomes     [pipeline.NumStructures][obs.NumOutcomes]int64
	buckets      [pipeline.NumStructures][][obs.NumOutcomes]int64 // cycle bucket × outcome
	bucketCycles int64
	maxBucket    int // highest bucket index touched (export bound)

	laneInj  [pipeline.MaxLanes]int64
	laneFail [pipeline.MaxLanes]int64

	// Confidence surface: latest estimate + Wilson interval per structure.
	conf         [pipeline.NumStructures]Confidence
	confSet      [pipeline.NumStructures]bool
	confInterval [pipeline.NumStructures]int
	confAVF      [pipeline.NumStructures]float64
}

// New builds an unbound Collector.
func New(cfg Config) *Collector {
	if cfg.BucketCycles <= 0 {
		cfg.BucketCycles = DefaultBucketCycles
	}
	if cfg.Z == 0 {
		cfg.Z = DefaultZ
	}
	return &Collector{cfg: cfg, bucketCycles: cfg.BucketCycles}
}

// Bind attaches the collector to a pipeline and the monitored structure
// set, preallocating every table so the record/sample paths never
// allocate. lanes is the lane-engine width (0 or 1 for the classic
// engine). Bind must be called exactly once, before the run starts;
// core.NewEstimator does so for an attached collector.
func (c *Collector) Bind(p *pipeline.Pipeline, structs []pipeline.Structure, lanes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.p != nil {
		panic("microtel: Collector bound twice")
	}
	c.p = p
	c.structs = append([]pipeline.Structure(nil), structs...)
	if lanes < 0 {
		lanes = 0
	}
	c.lanes = lanes
	for _, s := range structs {
		n := p.StructureEntries(s)
		c.entries[s] = n
		c.bound[s] = true
		c.occ[s] = make([]int64, n+1)
		c.cov[s] = make([][obs.NumOutcomes]int64, n)
		c.buckets[s] = make([][obs.NumOutcomes]int64, maxCycleBuckets)
	}
}

// Enabled reports whether the collector has been bound to a run.
func (c *Collector) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p != nil
}

// Boundary samples occupancy: one fused occupancy read per injection
// boundary, accumulated into the exact per-structure residency
// histograms.
func (c *Collector) Boundary(cycle int64) {
	c.mu.Lock()
	if c.p == nil {
		c.mu.Unlock()
		return
	}
	c.p.Occupancies(&c.counts)
	c.samples++
	c.lastCycle = cycle
	m := c.cfg.Metrics
	for _, s := range c.structs {
		k := c.counts[s]
		if k < 0 {
			k = 0
		} else if k >= len(c.occ[s]) {
			k = len(c.occ[s]) - 1
		}
		c.occ[s][k]++
		c.occSum[s] += int64(k)
		if m != nil && c.entries[s] > 0 {
			frac := float64(k) / float64(c.entries[s])
			m.ObserveOccupancy(s, frac)
			m.SetOccupancyMean(s, float64(c.occSum[s])/float64(c.samples)/float64(c.entries[s]))
		}
	}
	m.IncSamples()
	c.mu.Unlock()
}

// RecordInjection lands one concluded injection in the entry,
// cycle-bucket, and lane tables.
func (c *Collector) RecordInjection(rec obs.Injection) {
	c.mu.Lock()
	s := rec.Structure
	if int(s) < pipeline.NumStructures && c.bound[s] &&
		rec.Entry >= 0 && rec.Entry < len(c.cov[s]) && int(rec.Outcome) < obs.NumOutcomes {
		cell := &c.cov[s][rec.Entry]
		if cell[0]+cell[1]+cell[2] == 0 {
			c.covered[s]++
			if m := c.cfg.Metrics; m != nil && c.entries[s] > 0 {
				m.SetCoverage(s, float64(c.covered[s])/float64(c.entries[s]))
			}
		}
		cell[rec.Outcome]++
		c.outcomes[s][rec.Outcome]++
		b := c.bucketFor(rec.ConcludeCycle)
		c.buckets[s][b][rec.Outcome]++
	}
	if rec.Lane >= 0 && rec.Lane < pipeline.MaxLanes {
		c.laneInj[rec.Lane]++
		if rec.Outcome == obs.OutcomeFailure {
			c.laneFail[rec.Lane]++
		}
	}
	c.mu.Unlock()
}

// bucketFor maps a cycle to its bucket index, doubling the bucket width
// (and folding every structure's table in place) until it fits the
// fixed budget. Called with c.mu held.
func (c *Collector) bucketFor(cycle int64) int {
	if cycle < 0 {
		cycle = 0
	}
	idx := cycle / c.bucketCycles
	for idx >= maxCycleBuckets {
		c.rebin()
		idx = cycle / c.bucketCycles
	}
	if int(idx) > c.maxBucket {
		c.maxBucket = int(idx)
	}
	return int(idx)
}

// rebin doubles the bucket width: bucket j absorbs old buckets 2j and
// 2j+1. In place and allocation-free (j <= 2j, so reads stay ahead of
// writes).
func (c *Collector) rebin() {
	for _, s := range c.structs {
		tbl := c.buckets[s]
		half := maxCycleBuckets / 2
		for j := 0; j < half; j++ {
			a, b := tbl[2*j], tbl[2*j+1]
			for o := 0; o < obs.NumOutcomes; o++ {
				tbl[j][o] = a[o] + b[o]
			}
		}
		for j := half; j < maxCycleBuckets; j++ {
			tbl[j] = [obs.NumOutcomes]int64{}
		}
	}
	c.bucketCycles *= 2
	c.maxBucket /= 2
}

// Interval feeds one completed estimate to RecordEstimate.
func (c *Collector) Interval(est core.Estimate, _, _ time.Time) {
	c.RecordEstimate(est.Structure, est.Interval, est.Failures, est.Injections)
}

// RecordEstimate folds one completed AVF estimate into the confidence
// surface: standard error plus Wilson interval, retained per structure
// and mirrored to the metrics registry.
func (c *Collector) RecordEstimate(s pipeline.Structure, interval, failures, n int) {
	if int(s) >= pipeline.NumStructures {
		return
	}
	cf := Interval(failures, n, c.cfg.Z)
	c.mu.Lock()
	c.conf[s] = cf
	c.confSet[s] = true
	c.confInterval[s] = interval
	if n > 0 {
		c.confAVF[s] = float64(failures) / float64(n)
	}
	if m := c.cfg.Metrics; m != nil {
		m.SetCIHalfwidth(s, (cf.Hi-cf.Lo)/2)
	}
	c.mu.Unlock()
}

// Totals returns the outcome totals across all structures — the number
// that must reconcile exactly with Estimator.ConcludedInjections().
func (c *Collector) Totals() OutcomeCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t OutcomeCounts
	for _, s := range c.structs {
		t.Failures += c.outcomes[s][obs.OutcomeFailure]
		t.Masked += c.outcomes[s][obs.OutcomeMasked]
		t.Pending += c.outcomes[s][obs.OutcomePending]
	}
	return t
}

// Concluded returns the total concluded injections observed.
func (c *Collector) Concluded() int64 { return c.Totals().Total() }

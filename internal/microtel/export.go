package microtel

import (
	"encoding/json"
	"io"

	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// OutcomeCounts is one failure/masked/pending tally.
type OutcomeCounts struct {
	Failures int64 `json:"failures"`
	Masked   int64 `json:"masked"`
	Pending  int64 `json:"pending"`
}

// Total sums the three outcomes.
func (oc OutcomeCounts) Total() int64 { return oc.Failures + oc.Masked + oc.Pending }

func fromOutcomes(a [obs.NumOutcomes]int64) OutcomeCounts {
	return OutcomeCounts{
		Failures: a[obs.OutcomeFailure],
		Masked:   a[obs.OutcomeMasked],
		Pending:  a[obs.OutcomePending],
	}
}

// StructureSnapshot is one structure's telemetry surface.
type StructureSnapshot struct {
	Structure        string        `json:"structure"`
	Entries          int           `json:"entries"`
	Covered          int           `json:"covered"`
	CoverageRatio    float64       `json:"coverage_ratio"`
	Outcomes         OutcomeCounts `json:"outcomes"`
	OccupancySamples int64         `json:"occupancy_samples"`
	OccupancySum     int64         `json:"occupancy_sum"`
	OccupancyMean    float64       `json:"occupancy_mean"`
	// Residency[k] counts boundary samples that saw exactly k live
	// entries (len == Entries+1: the exact distribution).
	Residency []int64 `json:"residency"`
	// AVF/Interval/Confidence describe the latest completed estimate
	// (absent until the first interval completes).
	AVF        float64     `json:"avf,omitempty"`
	Interval   int         `json:"interval,omitempty"`
	Confidence *Confidence `json:"confidence,omitempty"`
}

// LaneStat is one injection lane's utilization.
type LaneStat struct {
	Lane       int    `json:"lane"`
	Structure  string `json:"structure"`
	Injections int64  `json:"injections"`
	Failures   int64  `json:"failures"`
}

// Snapshot is a point-in-time copy of a collector (or a merge of
// several — see MergeSnapshots).
type Snapshot struct {
	Samples      int64               `json:"samples"`
	LastCycle    int64               `json:"last_cycle"`
	BucketCycles int64               `json:"bucket_cycles"`
	Concluded    int64               `json:"concluded"`
	Totals       OutcomeCounts       `json:"totals"`
	Structures   []StructureSnapshot `json:"structures"`
	Lanes        []LaneStat          `json:"lanes,omitempty"`
}

// Snapshot copies the collector's current state. Safe to call while the
// run records.
func (c *Collector) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &Snapshot{
		Samples:      c.samples,
		LastCycle:    c.lastCycle,
		BucketCycles: c.bucketCycles,
	}
	for _, s := range c.structs {
		ss := StructureSnapshot{
			Structure:        s.String(),
			Entries:          c.entries[s],
			Covered:          c.covered[s],
			Outcomes:         fromOutcomes(c.outcomes[s]),
			OccupancySamples: c.samples,
			OccupancySum:     c.occSum[s],
			Residency:        append([]int64(nil), c.occ[s]...),
		}
		if c.entries[s] > 0 {
			ss.CoverageRatio = float64(c.covered[s]) / float64(c.entries[s])
		}
		if c.samples > 0 {
			ss.OccupancyMean = float64(c.occSum[s]) / float64(c.samples)
		}
		if c.confSet[s] {
			cf := c.conf[s]
			ss.Confidence = &cf
			ss.AVF = c.confAVF[s]
			ss.Interval = c.confInterval[s]
		}
		snap.Totals.Failures += ss.Outcomes.Failures
		snap.Totals.Masked += ss.Outcomes.Masked
		snap.Totals.Pending += ss.Outcomes.Pending
		snap.Structures = append(snap.Structures, ss)
	}
	snap.Concluded = snap.Totals.Total()
	for i := 0; i < c.lanes && i < pipeline.MaxLanes; i++ {
		if len(c.structs) == 0 {
			break
		}
		snap.Lanes = append(snap.Lanes, LaneStat{
			Lane:       i,
			Structure:  c.structs[i%len(c.structs)].String(),
			Injections: c.laneInj[i],
			Failures:   c.laneFail[i],
		})
	}
	return snap
}

// coverageLine is the NDJSON wire form: a tagged union over line types
// (summary, structure, entry, cycles, lane). Zero-valued fields of the
// inactive variants are omitted.
type coverageLine struct {
	Type      string `json:"type"`
	Structure string `json:"structure,omitempty"`

	// summary
	Samples      int64 `json:"samples,omitempty"`
	LastCycle    int64 `json:"last_cycle,omitempty"`
	BucketCycles int64 `json:"bucket_cycles,omitempty"`
	Concluded    int64 `json:"concluded,omitempty"`

	// shared outcome tally (summary, structure, entry, cycles)
	Failures int64 `json:"failures"`
	Masked   int64 `json:"masked"`
	Pending  int64 `json:"pending"`

	// structure
	Entries          int         `json:"entries,omitempty"`
	Covered          int         `json:"covered,omitempty"`
	CoverageRatio    float64     `json:"coverage_ratio,omitempty"`
	OccupancySum     int64       `json:"occupancy_sum,omitempty"`
	OccupancyMean    float64     `json:"occupancy_mean,omitempty"`
	Residency        []int64     `json:"residency,omitempty"`
	AVF              float64     `json:"avf,omitempty"`
	EstimateInterval int         `json:"estimate_interval,omitempty"`
	Confidence       *Confidence `json:"confidence,omitempty"`

	// entry
	Entry *int `json:"entry,omitempty"`

	// cycles
	Bucket     *int  `json:"bucket,omitempty"`
	StartCycle int64 `json:"start_cycle,omitempty"`
	EndCycle   int64 `json:"end_cycle,omitempty"`

	// lane
	Lane       *int  `json:"lane,omitempty"`
	Injections int64 `json:"injections,omitempty"`
}

// WriteNDJSON streams the full coverage map, one JSON object per line:
// a summary line, then per structure one "structure" line, one "entry"
// line per entry that concluded at least one injection, and one
// "cycles" line per non-empty cycle bucket; finally one "lane" line per
// injection lane. Outcome totals reconcile by construction: the sum of
// entry lines per structure equals the structure line equals (summed)
// the summary line.
func (c *Collector) WriteNDJSON(w io.Writer) error {
	snap := c.Snapshot()
	c.mu.Lock()
	type bucketRow struct {
		s      pipeline.Structure
		idx    int
		counts [obs.NumOutcomes]int64
	}
	// Copy the entry and bucket tables under the lock, then encode
	// without it.
	entryRows := make(map[pipeline.Structure][][obs.NumOutcomes]int64, len(c.structs))
	var bucketRows []bucketRow
	for _, s := range c.structs {
		entryRows[s] = append([][obs.NumOutcomes]int64(nil), c.cov[s]...)
		for i := 0; i <= c.maxBucket && i < len(c.buckets[s]); i++ {
			b := c.buckets[s][i]
			if b[0]+b[1]+b[2] == 0 {
				continue
			}
			bucketRows = append(bucketRows, bucketRow{s: s, idx: i, counts: b})
		}
	}
	structs := append([]pipeline.Structure(nil), c.structs...)
	width := c.bucketCycles
	c.mu.Unlock()

	enc := json.NewEncoder(w)
	sum := coverageLine{Type: "summary",
		Samples: snap.Samples, LastCycle: snap.LastCycle,
		BucketCycles: snap.BucketCycles, Concluded: snap.Concluded,
		Failures: snap.Totals.Failures, Masked: snap.Totals.Masked, Pending: snap.Totals.Pending,
	}
	if err := enc.Encode(sum); err != nil {
		return err
	}
	for _, ss := range snap.Structures {
		line := coverageLine{Type: "structure", Structure: ss.Structure,
			Entries: ss.Entries, Covered: ss.Covered, CoverageRatio: ss.CoverageRatio,
			Failures: ss.Outcomes.Failures, Masked: ss.Outcomes.Masked, Pending: ss.Outcomes.Pending,
			OccupancySum: ss.OccupancySum, OccupancyMean: ss.OccupancyMean,
			Samples: ss.OccupancySamples, Residency: ss.Residency,
			AVF: ss.AVF, EstimateInterval: ss.Interval, Confidence: ss.Confidence,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for _, s := range structs {
		name := s.String()
		for i, cell := range entryRows[s] {
			if cell[0]+cell[1]+cell[2] == 0 {
				continue
			}
			idx := i
			line := coverageLine{Type: "entry", Structure: name, Entry: &idx,
				Failures: cell[obs.OutcomeFailure],
				Masked:   cell[obs.OutcomeMasked],
				Pending:  cell[obs.OutcomePending],
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	for _, row := range bucketRows {
		idx := row.idx
		line := coverageLine{Type: "cycles", Structure: row.s.String(), Bucket: &idx,
			StartCycle: int64(idx) * width, EndCycle: (int64(idx)+1)*width - 1,
			Failures: row.counts[obs.OutcomeFailure],
			Masked:   row.counts[obs.OutcomeMasked],
			Pending:  row.counts[obs.OutcomePending],
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	for _, ls := range snap.Lanes {
		lane := ls.Lane
		line := coverageLine{Type: "lane", Lane: &lane, Structure: ls.Structure,
			Injections: ls.Injections, Failures: ls.Failures,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// MergeSnapshots aggregates per-job snapshots into one server-wide
// surface (GET /v1/occupancy): structures merge by name (counts sum,
// residency histograms add with padding, the widest interval's
// confidence is kept), lanes are dropped (lane indices are per-job).
func MergeSnapshots(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{}
	byName := map[string]*StructureSnapshot{}
	var order []string
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		out.Samples += sn.Samples
		if sn.LastCycle > out.LastCycle {
			out.LastCycle = sn.LastCycle
		}
		if sn.BucketCycles > out.BucketCycles {
			out.BucketCycles = sn.BucketCycles
		}
		for i := range sn.Structures {
			ss := &sn.Structures[i]
			dst, ok := byName[ss.Structure]
			if !ok {
				cp := *ss
				cp.Residency = append([]int64(nil), ss.Residency...)
				if ss.Confidence != nil {
					cf := *ss.Confidence
					cp.Confidence = &cf
				}
				byName[ss.Structure] = &cp
				order = append(order, ss.Structure)
				continue
			}
			dst.Covered += ss.Covered
			dst.Outcomes.Failures += ss.Outcomes.Failures
			dst.Outcomes.Masked += ss.Outcomes.Masked
			dst.Outcomes.Pending += ss.Outcomes.Pending
			dst.OccupancySamples += ss.OccupancySamples
			dst.OccupancySum += ss.OccupancySum
			if ss.Entries > dst.Entries {
				dst.Entries = ss.Entries
			}
			for len(dst.Residency) < len(ss.Residency) {
				dst.Residency = append(dst.Residency, 0)
			}
			for k, v := range ss.Residency {
				dst.Residency[k] += v
			}
			// Keep the tighter (latest-interval) confidence.
			if ss.Confidence != nil && (dst.Confidence == nil || ss.Interval > dst.Interval) {
				cf := *ss.Confidence
				dst.Confidence = &cf
				dst.AVF = ss.AVF
				dst.Interval = ss.Interval
			}
		}
	}
	for _, name := range order {
		ss := byName[name]
		if ss.Entries > 0 {
			// Covered can exceed Entries after merging jobs; clamp the
			// ratio, not the count.
			ss.CoverageRatio = float64(ss.Covered) / float64(ss.Entries)
			if ss.CoverageRatio > 1 {
				ss.CoverageRatio = 1
			}
		}
		if ss.OccupancySamples > 0 {
			ss.OccupancyMean = float64(ss.OccupancySum) / float64(ss.OccupancySamples)
		}
		out.Totals.Failures += ss.Outcomes.Failures
		out.Totals.Masked += ss.Outcomes.Masked
		out.Totals.Pending += ss.Outcomes.Pending
		out.Structures = append(out.Structures, *ss)
	}
	out.Concluded = out.Totals.Total()
	return out
}

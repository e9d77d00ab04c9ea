package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"avfsim/internal/core"
	"avfsim/internal/flight"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// Digests of every injection-engine mode the goldens above do not reach:
// the classic engine under the random ablations, Multiplex, the lane
// engine at 16 lanes, and a structure order that is not the paper's.
// Each run hashes the per-interval estimates (online, reference, every
// Estimate field, in OnInterval delivery order), the pipeline counters,
// every obs.Injection lifecycle record, and the flight recorder's
// propagation traces as NDJSON. They were captured before the three
// engine modes were folded into one lane table, so they pin the order
// of RNG draws, sink records and flight events of each mode.
var goldenEngineModeDigests = map[string]string{
	"classic-random":  "a71b6b20fa67abfe2583c2b82824783fedeada16da29bd0e57e560d9790067d7",
	"multiplex-fixed": "879c005acc0d35c3050946ebc4fd4ae9c7bc67cbc6147b5a7dbccf925de03e5e",
	"multiplex-rand":  "0d3c4207e9b2d9c43b03add0ede176a9ab8eeb1b2391748e036dbc8f62b37662",
	"lanes16-fixed":   "f841fc740658be53eef860c3f3e6112304fd979c733cc5ba47df7c7b4e472cd3",
	"lanes16-random":  "1ced3f9f21c3a1bee35cb5dda3ba5a4ff69f24700cc95e5d20c2deb302e69177",
	"classic-order":   "e25537024a9f24d040063526d4a2dc79d828a548dd25c127ce8e9f9085714c16",
}

// goldenEngineModes are the runs behind goldenEngineModeDigests, all on
// bzip2 at goldenSpec scale.
var goldenEngineModes = []struct {
	name string
	rc   RunConfig
}{
	{"classic-random", RunConfig{RandomEntry: true, RandomSchedule: true}},
	{"multiplex-fixed", RunConfig{Multiplex: true}},
	{"multiplex-rand", RunConfig{Multiplex: true, RandomEntry: true, RandomSchedule: true}},
	{"lanes16-fixed", RunConfig{Lanes: 16}},
	{"lanes16-random", RunConfig{Lanes: 16, RandomEntry: true, RandomSchedule: true}},
	{"classic-order", RunConfig{Structures: []pipeline.Structure{
		pipeline.StructFPU, pipeline.StructIQ, pipeline.StructDTLB, pipeline.StructLSU}}},
}

// injectionLog is an observer that keeps every lifecycle record.
type injectionLog struct {
	core.NopObserver
	recs []obs.Injection
}

func (l *injectionLog) RecordInjection(rec obs.Injection) { l.recs = append(l.recs, rec) }

func engineModeDump(t *testing.T, rc RunConfig) []byte {
	t.Helper()
	rc.Benchmark = "bzip2"
	rc.Scale, rc.Seed = goldenSpec.Scale, goldenSeed
	rc.M, rc.N, rc.Intervals = goldenSpec.M, goldenSpec.N, goldenSpec.Intervals
	sink := &injectionLog{}
	rec := flight.New(flight.DefaultCap) // ~2.5k events a run: nothing drops
	var buf bytes.Buffer
	rc.Observer, rc.Recorder = sink, rec
	rc.OnInterval = func(e core.Estimate) { fmt.Fprintf(&buf, "interval %+v\n", e) }
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "stats=%+v dropped=%d\n", res.Stats, res.DroppedMarks)
	for _, ss := range res.Series {
		fmt.Fprintf(&buf, "%s online=%v reference=%v util=%v\n",
			ss.Structure, ss.Online, ss.Reference, ss.Utilization)
		for _, est := range res.Estimator.Estimates(ss.Structure) {
			fmt.Fprintf(&buf, "%s est=%+v\n", ss.Structure, est)
		}
	}
	for _, r := range sink.recs {
		fmt.Fprintf(&buf, "inj %+v\n", r)
	}
	t.Logf("%d injection records, %d flight events (%d dropped)", len(sink.recs), rec.Total(), rec.Dropped())
	if err := rec.Traces().WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenEngineModesDigest pins the engine modes listed above.
func TestGoldenEngineModesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("six full runs")
	}
	for _, m := range goldenEngineModes {
		dump := engineModeDump(t, m.rc)
		if got, want := sha(dump), goldenEngineModeDigests[m.name]; got != want {
			t.Errorf("%s: engine output changed: digest %s, want %s", m.name, got, want)
		}
	}
}

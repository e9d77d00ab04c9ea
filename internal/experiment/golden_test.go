package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"avfsim/internal/pipeline"
)

// This file is the byte-identity gate for the cycle-loop optimization
// work: the digests below were captured on pre-optimization main at
// fixed seeds, and every optimization commit must leave them unchanged.
// A digest mismatch means an "optimization" changed simulated behavior —
// reject it, no matter how fast it is.
//
// Two artifact families are pinned:
//   - the rendered Figure 3 and Figure 4 text tables (every AVF value of
//     every benchmark × structure passes through these), and
//   - the raw per-interval estimate series (online + reference + every
//     Estimate counter) for two benchmarks × four structures, which
//     catches changes the %.3f/%.4f table rounding would mask.

// goldenSpec is the fixed scale for the digest gate. It intentionally
// does not alias tinyGridSpec: the gate must not drift if unrelated
// tests retune their spec.
var goldenSpec = ScaleSpec{
	Name: "golden", Scale: 0.02, M: 400, N: 50,
	Intervals: 3, DetailIntervals: 4, Fig2M: 1000, Fig2Samples: 200,
}

const goldenSeed = 7

// Pre-optimization digests (SHA-256), captured at commit 8b195d2.
const (
	goldenFigure3Digest = "460b715123950e7700eb39baf3336414ee6e5295a697f4db551659bb3c485b0b"
	goldenFigure4Digest = "9435841fd68dc5f3c800160a47d65f1602375bb456481d8fe41de5e863726caf"
	goldenSeriesDigest  = "b06c918b4264a0fe9bb62ee536e3698a584d11c243a977b660a1c14b56447313"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestGoldenFigure3Digest pins the Figure 3 render bytes.
func TestGoldenFigure3Digest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid render")
	}
	var out bytes.Buffer
	if err := NewSuite(goldenSpec, goldenSeed).Figure3(&out); err != nil {
		t.Fatal(err)
	}
	if got := sha(out.Bytes()); got != goldenFigure3Digest {
		t.Fatalf("Figure 3 render changed: digest %s, want %s\n--- render ---\n%s",
			got, goldenFigure3Digest, out.String())
	}
}

// TestGoldenFigure4Digest pins the Figure 4 render bytes.
func TestGoldenFigure4Digest(t *testing.T) {
	if testing.Short() {
		t.Skip("detail-interval render")
	}
	var out bytes.Buffer
	if err := NewSuite(goldenSpec, goldenSeed).Figure4(&out); err != nil {
		t.Fatal(err)
	}
	if got := sha(out.Bytes()); got != goldenFigure4Digest {
		t.Fatalf("Figure 4 render changed: digest %s, want %s\n--- render ---\n%s",
			got, goldenFigure4Digest, out.String())
	}
}

// goldenSeriesDump serializes everything an optimization could corrupt
// without moving a rounded table cell: every Estimate field of the
// online series, the full-precision reference and utilization series,
// and the end-of-run pipeline counters.
func goldenSeriesDump(t *testing.T, bench string) []byte {
	t.Helper()
	res, err := Run(RunConfig{
		Benchmark: bench,
		Scale:     goldenSpec.Scale,
		Seed:      goldenSeed,
		M:         goldenSpec.M,
		N:         goldenSpec.N,
		Intervals: goldenSpec.Intervals,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "bench=%s stats=%+v dropped=%d\n", bench, res.Stats, res.DroppedMarks)
	for _, s := range pipeline.PaperStructures {
		ss := res.SeriesFor(s)
		fmt.Fprintf(&buf, "%s online=%v reference=%v util=%v\n",
			s, ss.Online, ss.Reference, ss.Utilization)
		for _, est := range res.Estimator.Estimates(s) {
			fmt.Fprintf(&buf, "%s est=%+v\n", s, est)
		}
	}
	fmt.Fprintf(&buf, "iqocc=%v\nfeatures=%v\n", res.IQOccupancy, res.Features)
	return buf.Bytes()
}

// TestGoldenEstimateSeriesDigest pins the raw estimate series for two
// benchmarks across the paper's four structures.
func TestGoldenEstimateSeriesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs")
	}
	var all []byte
	for _, bench := range []string{"mesa", "bzip2"} {
		all = append(all, goldenSeriesDump(t, bench)...)
	}
	if got := sha(all); got != goldenSeriesDigest {
		t.Fatalf("estimate series changed: digest %s, want %s\n--- dump ---\n%s",
			got, goldenSeriesDigest, all)
	}
}

// Digests of the SoftArch reference at small node windows, captured on
// the commit before the reference stored reads inline and queued closed
// segments in a ring. With the window this small, marking chains are
// truncated (DroppedMarks > 0) and a dropped mark still flags its target
// ACE, so a register value's attribution depends on exactly when its
// segment settles: these pin the settlement order, which the default
// window never exercises.
var goldenSoftArchWindowDigests = map[string]string{
	"sixtrack/64":   "040775ffb81fabd97c535abab8784367392f41afd2a68fb7084d38e2a542499f",
	"sixtrack/256":  "bc9dfa8d5ee381c26927456e9c6d4a6d4efdfc84dc6bc8c09390218a58ba17f7",
	"sixtrack/4096": "3e029fee96512f8d422ce9e325af162683a90a2aeef36f5d570d8fae880afd94",
	"bzip2/64":      "2e468bff6f2b8d198404ef706630b77de693935391f3fb76e1f5b0392455cfa9",
	"bzip2/256":     "56076f1a48f9c4599845ffeffc9dbda55454f867e3e69beda61cf49f0e341b5a",
	"bzip2/4096":    "56076f1a48f9c4599845ffeffc9dbda55454f867e3e69beda61cf49f0e341b5a",
}

// TestGoldenSoftArchSmallWindowDigest pins every structure's reference
// series, and the dropped-mark count, at node windows of 64, 256 and
// 4096 on an FP-heavy and an integer benchmark. sixtrack drops 12601
// marks at window 64 and 304 at 256; bzip2 drops 8 at 64.
func TestGoldenSoftArchSmallWindowDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("six runs")
	}
	all := make([]pipeline.Structure, pipeline.NumStructures)
	for i := range all {
		all[i] = pipeline.Structure(i)
	}
	for _, bench := range []string{"sixtrack", "bzip2"} {
		for _, window := range []int{64, 256, 4096} {
			res, err := Run(RunConfig{
				Benchmark: bench, Scale: goldenSpec.Scale, Seed: goldenSeed,
				M: 1000, N: 100, Intervals: 3, Structures: all, Window: window,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "dropped=%d\n", res.DroppedMarks)
			for _, s := range all {
				fmt.Fprintf(&buf, "%s reference=%v\n", s, res.SeriesFor(s).Reference)
			}
			key := fmt.Sprintf("%s/%d", bench, window)
			t.Logf("%s dropped %d", key, res.DroppedMarks)
			if got := sha(buf.Bytes()); got != goldenSoftArchWindowDigests[key] {
				t.Errorf("%s reference series changed: digest %s, want %s\n--- dump ---\n%s",
					key, got, goldenSoftArchWindowDigests[key], buf.Bytes())
			}
		}
	}
}

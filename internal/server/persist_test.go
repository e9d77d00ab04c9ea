package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"avfsim/internal/sched"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// newStoreServer builds a durable test server over dir.
func newStoreServer(t *testing.T, dir string, opts ...Option) (*httptest.Server, *Server, *store.Store, *sched.Pool) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(sched.Options{Workers: 2, QueueCap: 8})
	opts = append([]Option{
		WithStore(st),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
	}, opts...)
	srv := New(pool, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.CancelAll()
		pool.Shutdown(context.Background())
		srv.Close()
		st.Close()
	})
	return ts, srv, st, pool
}

// waitPoints polls until the job has at least n persisted points.
func waitPoints(t *testing.T, ts *httptest.Server, id string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if len(getStatus(t, ts, id).Intervals) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %d interval points", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashResumeByteIdentical is the determinism gate of the durable
// jobs layer: kill the store mid-run (everything not yet fsync'd is
// lost, like a kill -9), restart on the same directory, and require the
// recovered job to complete with a per-interval estimate series — and
// final result — byte-identical to the uninterrupted run. This holds
// because the simulator is a pure function of (spec, seed): resume
// re-executes from cycle 0 with emission suppressed below the
// checkpoint, re-deriving the RNG stream and pipeline state exactly.
func TestCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	// 40 intervals of 100k cycles: long enough that the crash below
	// lands mid-run, short enough to finish promptly.
	const spec = `{"benchmark":"bzip2","scale":0.02,"seed":7,"m":2000,"n":50,"intervals":40}`

	ts, _, st, _ := newStoreServer(t, dir)
	id, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	// Crash once two full interval groups (8 points) are durable: every
	// append from here on is dropped, exactly as a power cut would.
	waitPoints(t, ts, id, 8, 20*time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-memory run is unaffected — let it finish and keep its full
	// series as the uninterrupted reference.
	ref := waitTerminal(t, ts, id, 60*time.Second)
	if ref.State != "done" {
		t.Fatalf("reference run state = %q (%s)", ref.State, ref.Error)
	}
	ts.Close()

	// Reboot on the same directory.
	ts2, srv2, st2, _ := newStoreServer(t, dir)
	resumed, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1 (crash landed after run end?)", resumed)
	}
	// The WAL must hold a strict prefix: the crash dropped the tail.
	jr := st2.Jobs()
	if len(jr) != 1 || len(jr[0].Intervals) >= len(ref.Intervals) {
		t.Fatalf("WAL holds %d jobs / %d points; want 1 job with a strict prefix of %d",
			len(jr), len(jr[0].Intervals), len(ref.Intervals))
	}

	got := waitTerminal(t, ts2, id, 60*time.Second)
	if got.State != "done" {
		t.Fatalf("resumed run state = %q (%s)", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Intervals, ref.Intervals) {
		t.Fatalf("resumed interval series differs from uninterrupted run:\n got %d points\nwant %d points",
			len(got.Intervals), len(ref.Intervals))
	}
	gb, _ := json.Marshal(got.Intervals)
	rb, _ := json.Marshal(ref.Intervals)
	if string(gb) != string(rb) {
		t.Fatal("resumed interval series not byte-identical to uninterrupted run")
	}
	if !reflect.DeepEqual(got.Result, ref.Result) {
		t.Fatal("resumed final series differs from uninterrupted run")
	}
}

// TestResumeGateIntervalSpans: a job recovered after a crash re-runs
// from cycle 0, and its observer drops what the earlier boot already
// delivered. The recovered run records "interval" spans only from the
// resume point on (startInterval of the persisted checkpoint), exactly
// one per structure and interval; it appends to the WAL only the points
// the checkpoint lacks; and a stream opened on it delivers each point
// exactly once, in the uninterrupted run's order.
func TestResumeGateIntervalSpans(t *testing.T) {
	dir := t.TempDir()
	const (
		spec      = `{"benchmark":"bzip2","scale":0.02,"seed":7,"m":2000,"n":50,"intervals":40}`
		intervals = 40
	)
	ts, _, st, _ := newStoreServer(t, dir, WithSpans(span.NewRecorder(4096)))
	id, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	waitPoints(t, ts, id, 8, 20*time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ref := waitTerminal(t, ts, id, 60*time.Second)
	if ref.State != "done" {
		t.Fatalf("reference run state = %q (%s)", ref.State, ref.Error)
	}
	ts.Close()

	ts2, srv2, st2, _ := newStoreServer(t, dir, WithSpans(span.NewRecorder(4096)))
	jr := st2.Jobs()
	if len(jr) != 1 {
		t.Fatalf("WAL holds %d jobs, want 1", len(jr))
	}
	skipTo := map[string]int{}
	for _, raw := range jr[0].Intervals {
		var pt IntervalPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			t.Fatal(err)
		}
		skipTo[pt.Structure] = max(skipTo[pt.Structure], pt.Interval+1)
	}
	persisted := len(jr[0].Intervals)
	start := startInterval(skipTo, nil)
	if start == 0 || persisted >= len(ref.Intervals) {
		t.Fatalf("checkpoint of %d points resumes at interval %d; want a strict prefix past interval 0", persisted, start)
	}
	if resumed, err := srv2.Recover(); err != nil || resumed != 1 {
		t.Fatalf("Recover = %d, %v; want 1 resumed job", resumed, err)
	}

	resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var streamed []IntervalPoint
	var end *StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type == "end" {
			end = &ev
			continue
		}
		streamed = append(streamed, *ev.Interval)
	}
	if end == nil || end.State != "done" {
		t.Fatalf("stream end event = %+v, want done", end)
	}
	seen := map[string]bool{}
	for _, pt := range streamed {
		key := pt.Structure + "/" + strconv.Itoa(pt.Interval)
		if seen[key] {
			t.Fatalf("stream delivered %s twice", key)
		}
		seen[key] = true
	}
	if !reflect.DeepEqual(streamed, ref.Intervals) {
		t.Fatalf("recovered stream of %d points differs from the uninterrupted run's %d", len(streamed), len(ref.Intervals))
	}

	perStruct := map[string][]int{}
	wal := 0
	for _, sp := range fetchSpans(t, ts2, id) {
		switch sp.Name {
		case "interval":
			k, err := strconv.Atoi(sp.Attrs["interval"])
			if err != nil {
				t.Fatalf("interval span without an interval attribute: %+v", sp)
			}
			perStruct[sp.Attrs["structure"]] = append(perStruct[sp.Attrs["structure"]], k)
		case "wal":
			wal++
		}
	}
	if len(perStruct) != len(skipTo) {
		t.Fatalf("interval spans for %d structures, want %d", len(perStruct), len(skipTo))
	}
	for name, ks := range perStruct {
		if len(ks) != intervals-start {
			t.Fatalf("%s: %d interval spans, want %d (intervals %d..%d)", name, len(ks), intervals-start, start, intervals-1)
		}
		for i, k := range ks {
			if k != start+i {
				t.Fatalf("%s: interval span %d is for interval %d, want %d", name, i, k, start+i)
			}
		}
	}
	if want := len(ref.Intervals) - persisted; wal != want {
		t.Fatalf("recovered run wrote %d WAL frames, want the %d the checkpoint lacked", wal, want)
	}
}

// TestGracefulDrainInterrupted checks the SIGTERM path: BeginDrain +
// cancel persists the job as "interrupted" (a checkpoint, not a
// verdict), stream clients get a clean terminal NDJSON event, no
// subscriber channel leaks, and the next boot resumes the job.
func TestGracefulDrainInterrupted(t *testing.T) {
	dir := t.TempDir()
	ts, srv, st, pool := newStoreServer(t, dir)
	id, code := postJob(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream closed before first estimate")
	}

	waitPoints(t, ts, id, 4, 20*time.Second)
	srv.BeginDrain()
	srv.CancelAll()

	// The stream must end with a clean terminal event, not a cut socket.
	var last StreamEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if last.Type != "end" || last.State != "canceled" {
		t.Fatalf("stream terminal event = %+v, want end/canceled", last)
	}

	waitTerminal(t, ts, id, 20*time.Second)
	// watch() persists the terminal state after ending the job; wait for
	// the "interrupted" frame to land before judging the WAL.
	deadline := time.Now().Add(10 * time.Second)
	var stored store.JobRecord
	for {
		if jr := st.Jobs(); len(jr) == 1 && jr[0].State == "interrupted" {
			stored = jr[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL state = %+v, want interrupted", st.Jobs())
		}
		time.Sleep(time.Millisecond)
	}
	if stored.Terminal() {
		t.Fatal("interrupted must be resumable, not terminal")
	}
	if len(stored.Intervals) == 0 {
		t.Fatal("drain persisted no interval checkpoints")
	}

	// No subscriber-channel leak after the drain released clients.
	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	j.mu.Lock()
	leaked := len(j.subs)
	j.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d subscriber channels leaked", leaked)
	}

	ts.Close()
	pool.Shutdown(context.Background())
	st.Close()

	// Next boot re-enqueues the interrupted job.
	_, srv2, _, _ := newStoreServer(t, dir)
	resumed, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	srv2.CancelAll()
}

// TestRetentionEvicts bounds the job map: with a max-completed cap of
// 1, finishing a second job evicts the older terminal one from memory
// and the store.
func TestRetentionEvicts(t *testing.T) {
	dir := t.TempDir()
	ts, srv, st, _ := newStoreServer(t, dir, WithRetention(0, 1))
	id1, _ := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, id1, 60*time.Second)
	id2, _ := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, id2, 60*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.jobs)
		_, oldGone := srv.jobs[id1]
		srv.mu.Unlock()
		if n == 1 && !oldGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention kept %d jobs (old present=%v), want only %s", n, oldGone, id2)
		}
		time.Sleep(time.Millisecond)
	}
	if jr := st.Jobs(); len(jr) != 1 || jr[0].ID != id2 {
		t.Fatalf("store after eviction = %+v, want only %s", jr, id2)
	}
}

// TestBodyLimit413 bounds POST /v1/jobs bodies.
func TestBodyLimit413(t *testing.T) {
	ts, _, _, _ := newStoreServer(t, t.TempDir(), WithMaxBodyBytes(64))
	big := `{"benchmark":"bzip2","structures":["` + strings.Repeat("x", 128) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code=%d body=%s, want 413", resp.StatusCode, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil || out["error"] == "" {
		t.Fatalf("413 body = %s, want JSON error", body)
	}
}

// TestJobDeadlineCancels: a job running past the server-wide deadline
// is canceled (admission control over runaway specs).
func TestJobDeadlineCancels(t *testing.T) {
	ts, _, _, _ := newStoreServer(t, t.TempDir(), WithJobDeadline(50*time.Millisecond))
	id, code := postJob(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	st := waitTerminal(t, ts, id, 30*time.Second)
	if st.State != "canceled" {
		t.Fatalf("state = %q (%s), want canceled", st.State, st.Error)
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfsim/internal/obs"
	"avfsim/internal/sched"
)

// tinyJob finishes in well under a second: 3 intervals of 20k cycles.
const tinyJob = `{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3}`

// longJob requests far more intervals than any test waits for.
const longJob = `{"benchmark":"mesa","scale":0.02,"seed":3,"m":400,"n":50,"intervals":100000}`

func newTestServer(t *testing.T, workers, queueCap int) (*httptest.Server, *Server, *sched.Pool) {
	t.Helper()
	reg := obs.NewRegistry()
	pool := sched.New(sched.Options{Workers: workers, QueueCap: queueCap, Metrics: reg})
	srv := New(pool, WithMetrics(reg),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.CancelAll()
		pool.Shutdown(context.Background())
	})
	return ts, srv, pool
}

func postJob(t *testing.T, ts *httptest.Server, body string) (id string, code int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out["id"], resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		switch st.State {
		case "done", "failed", "canceled", "shed":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitStreamResult drives the submit → stream → result flow end
// to end: the stream delivers every per-interval estimate as NDJSON and
// ends with a terminal event; the status endpoint then serves the full
// series.
func TestSubmitStreamResult(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	id, code := postJob(t, ts, tinyJob)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("submit: code=%d id=%q", code, id)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content-type = %q", ct)
	}
	var intervals []IntervalPoint
	var end *StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "interval":
			intervals = append(intervals, *ev.Interval)
		case "end":
			end = &ev
		default:
			t.Fatalf("unknown stream event %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if end == nil || end.State != "done" || end.Error != "" {
		t.Fatalf("stream end event = %+v, want done", end)
	}
	// 3 intervals × the 4 paper structures.
	if len(intervals) != 12 {
		t.Fatalf("streamed %d interval events, want 12", len(intervals))
	}
	perStruct := map[string]int{}
	for _, pt := range intervals {
		if pt.Interval != perStruct[pt.Structure] {
			t.Fatalf("out-of-order stream for %s: got interval %d after %d",
				pt.Structure, pt.Interval, perStruct[pt.Structure])
		}
		perStruct[pt.Structure]++
		if pt.Injections != 50 || pt.AVF < 0 || pt.AVF > 1 {
			t.Fatalf("implausible estimate %+v", pt)
		}
	}

	st := waitTerminal(t, ts, id, 5*time.Second)
	if st.Result == nil {
		t.Fatal("terminal job has no result")
	}
	if len(st.Result.Series) != 4 {
		t.Fatalf("result has %d series, want 4", len(st.Result.Series))
	}
	for _, series := range st.Result.Series {
		if len(series.Online) != 3 || len(series.Reference) != 3 {
			t.Fatalf("series %s: online %d / reference %d points, want 3",
				series.Structure, len(series.Online), len(series.Reference))
		}
	}
	// The streamed estimates must equal the final online series.
	for _, series := range st.Result.Series {
		var got []float64
		for _, pt := range intervals {
			if pt.Structure == series.Structure {
				got = append(got, pt.AVF)
			}
		}
		for i, v := range series.Online {
			if got[i] != v {
				t.Fatalf("series %s interval %d: streamed %v != final %v", series.Structure, i, got[i], v)
			}
		}
	}
}

// TestCancelStopsRunningJob checks DELETE interrupts a simulation
// mid-flight: the job goes terminal promptly (the runner checks its
// context every ctxCheckStride cycles — far less than one estimation
// interval) instead of finishing its 100000 requested intervals.
func TestCancelStopsRunningJob(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)
	id, code := postJob(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	// Wait until it is demonstrably running (≥ 1 estimate out).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if len(st.Intervals) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job produced no estimates")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	canceledAt := time.Now()
	st := waitTerminal(t, ts, id, 5*time.Second)
	if st.State != "canceled" {
		t.Fatalf("state after cancel = %q", st.State)
	}
	if st.Error == "" {
		t.Fatal("canceled job reports no error")
	}
	if len(st.Intervals) >= 100000*4 {
		t.Fatal("job ran to completion despite cancel")
	}
	// "Promptly" = well under the time one whole run would take; the
	// generous bound keeps slow CI happy.
	if elapsed := time.Since(canceledAt); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestQueueFullRejects checks backpressure surfaces as 429 +
// Retry-After once the single worker is busy and the queue is full.
func TestQueueFullRejects(t *testing.T) {
	ts, _, pool := newTestServer(t, 1, 1)
	id1, code := postJob(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("job1: code=%d", code)
	}
	// Wait for the worker to pick job1 up so job2 lands in the queue.
	deadline := time.Now().Add(10 * time.Second)
	for pool.Stats().Running < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job1 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code := postJob(t, ts, longJob); code != http.StatusAccepted {
		t.Fatalf("job2: code=%d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(longJob))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job3: code=%d body=%s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !bytes.Contains(body, []byte("queue full")) {
		t.Fatalf("429 body = %s", body)
	}
	// Cancel job1; the slot frees and submissions are accepted again.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id1, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, ts, id1, 5*time.Second)
	if _, code := postJob(t, ts, tinyJob); code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: code=%d", code)
	}
}

// TestBadSpecsRejected checks validation happens at submission.
func TestBadSpecsRejected(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 4)
	for _, body := range []string{
		`{"benchmark":"no-such-benchmark"}`,
		`{"benchmark":"mesa","structures":["warp-core"]}`,
		`{"benchmark":"mesa","unknown_field":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: code=%d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown job ids are 404s.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: code=%d, want 404", path, resp.StatusCode)
		}
	}
}

// TestLaneSpecValidation pins which lane settings a submission may carry:
// the rules live in core.ValidateLanes, and every spec it refuses is a
// 400 at submission rather than a failed job.
func TestLaneSpecValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, 1, 8)
	const job = `"benchmark":"bzip2","scale":0.02,"m":400,"n":50,"intervals":1`
	for _, tc := range []struct {
		name string
		spec string
		want int
	}{
		{"negative", `"lanes":-1`, http.StatusBadRequest},
		{"above max", `"lanes":65`, http.StatusBadRequest},
		{"with multiplex", `"lanes":8,"multiplex":true`, http.StatusBadRequest},
		{"fewer than default structures", `"lanes":2`, http.StatusBadRequest},
		{"fewer than listed structures", `"lanes":2,"structures":["iq","reg","fpu"]`, http.StatusBadRequest},
		{"one per default structure", `"lanes":4`, http.StatusAccepted},
		{"one per listed structure", `"lanes":2,"structures":["iq","fxu"]`, http.StatusAccepted},
		{"max", `"lanes":64`, http.StatusAccepted},
		{"classic", `"lanes":1,"multiplex":true`, http.StatusAccepted},
	} {
		if _, code := postJob(t, ts, "{"+job+","+tc.spec+"}"); code != tc.want {
			t.Errorf("%s {%s}: code=%d, want %d", tc.name, tc.spec, code, tc.want)
		}
	}
}

// TestHealthzStatsList exercises the operational endpoints while ≥ 2
// simulations run concurrently through the scheduler.
func TestHealthzStatsList(t *testing.T) {
	ts, _, pool := newTestServer(t, 2, 8)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	var ids []string
	for i := 0; i < 2; i++ {
		id, code := postJob(t, ts, tinyJob)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: code=%d", i, code)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st := waitTerminal(t, ts, id, 10*time.Second); st.State != "done" {
			t.Fatalf("job %s: state %q, error %q", id, st.State, st.Error)
		}
	}
	if s := pool.Stats(); s.Done < 2 {
		t.Fatalf("pool stats: %+v, want Done >= 2", s)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Scheduler sched.Stats `json:"scheduler"`
		Jobs      struct {
			Total   int            `json:"total"`
			ByState map[string]int `json:"by_state"`
		} `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Total != 2 || stats.Jobs.ByState["done"] != 2 || stats.Scheduler.Workers != 2 {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobSummary `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list.Jobs))
	}
	for i, j := range list.Jobs {
		if want := fmt.Sprintf("job-%d", i+1); j.ID != want {
			t.Fatalf("list order: got %q at %d, want %q", j.ID, i, want)
		}
	}
}

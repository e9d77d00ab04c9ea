package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"avfsim/internal/experiment"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/sched"
	"avfsim/internal/server"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// daemonClients is the number of closed-loop clients (and connections).
const daemonClients = 2

// daemonSpec is job k of a seed: a short lanes=64 run of one of the four
// profiles, with a seed unique to (seed, k).
func daemonSpec(seed uint64, k int) server.JobSpec {
	return server.JobSpec{
		Benchmark: simBenchmarks[k%len(simBenchmarks)],
		Scale:     0.05, M: 1000, N: 64, Intervals: 10, Lanes: 64,
		Seed: seed<<32 | uint64(k),
	}
}

// The daemon's bounded stores are smaller than avfd's defaults: terminal
// jobs kept (-retention-max, default unbounded), cached runs (-cache-max,
// default 4096) and retained spans (-span-cap, default 16384). At the
// defaults the live heap grows with the number of jobs served for longer
// than a run lasts, so a faster build would read as a heap regression;
// with these caps every store is full within the first seconds.
const (
	retainJobs   = 64
	cacheEntries = 64
	spanCap      = 2048
)

// daemonParts is the number of parts a daemon window is cut into: each
// part of a 35 s run holds 80 daemon-fresh jobs on a busy host and over
// 250 on a quiet one, so its p90 has eight or more beyond it.
const daemonParts = 6

// dupSpecs is the number of distinct specs daemon-dup draws from. They
// are the same for every seed (daemonSpec(0, i)), so every run replays
// the same set; the seed draws the order.
const dupSpecs = 8

// dupPick is the spec index of daemon-dup's job k: a fixed pseudo-random
// sequence of the seed (splitmix64).
func dupPick(seed uint64, k int) int {
	z := seed*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % dupSpecs)
}

func runConfigOf(js server.JobSpec) experiment.RunConfig {
	return experiment.RunConfig{
		Benchmark: js.Benchmark, Scale: js.Scale, Seed: js.Seed, M: js.M, N: js.N,
		Intervals: js.Intervals, Lanes: js.Lanes,
		Structures: append([]pipeline.Structure(nil), pipeline.PaperStructures...),
	}
}

// daemon is avfd assembled in-process from its public parts, with the
// options cmd/avfd uses by default except for a WAL store, one worker and
// the store caps above. It is served on loopback. The store writes every
// frame but skips the per-frame fsync: on a shared host the fsync
// latency is the disk's, and it moved the wall-clock figures of runs of
// the same code by a third.
type daemon struct {
	dir    string
	st     *store.Store
	pool   *sched.Pool
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

func startDaemon() (*daemon, error) {
	// avfd's default logger (text, info), writing to a discarded sink:
	// formatting is measured, terminal I/O is not.
	logger, err := obs.NewLogger(io.Discard, "text", "info")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-avfd-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan error, 1)}
	reg := obs.NewRegistry()
	d.pool = sched.New(sched.Options{Workers: 1, QueueCap: 64, Metrics: reg})
	d.st, err = store.Open(dir, store.Options{Metrics: reg, NoSync: true})
	if err != nil {
		d.pool.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d.srv = server.New(d.pool,
		server.WithMetrics(reg),
		server.WithLogger(logger),
		server.WithRetention(0, retainJobs),
		server.WithJobDeadline(0),
		server.WithMaxBodyBytes(1<<20),
		server.WithStreamWriteTimeout(30*time.Second),
		server.WithResultCache(cacheEntries),
		server.WithSLO(span.NewEngine(span.DefaultObjectives())),
		server.WithSpans(span.NewRecorder(spanCap)),
		server.WithStore(d.st),
	)
	if _, err := d.srv.Recover(); err != nil {
		d.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{
		Handler:           d.srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the daemon the way avfd does on SIGTERM, then removes its
// data directory.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.hs != nil {
		d.hs.Shutdown(ctx)
		<-d.served
	}
	d.pool.Shutdown(ctx)
	d.srv.Close()
	d.st.Close()
	os.RemoveAll(d.dir)
}

// client is one closed-loop caller with its own connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Timeout: jobTimeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// jobRun is one job as a client saw it.
type jobRun struct {
	id                       string
	submitMs, firstMs, jobMs float64
	streamMs                 float64
	stream                   []byte // the raw NDJSON stream
	points                   []server.IntervalPoint
	state                    string
	spans                    []span.Span // traced runs only
}

// run submits spec and reads its stream to the end event.
func (c *client) run(spec []byte) (jobRun, error) {
	var r jobRun
	t0 := time.Now()
	resp, err := c.hc.Post(c.url+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return r, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return r, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return r, fmt.Errorf("submit reply: %w", err)
	}
	r.id = sub.ID
	r.submitMs = ms(time.Since(t0))

	ts := time.Now()
	resp, err = c.hc.Get(c.url + "/v1/jobs/" + r.id + "/stream")
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("stream %s: %s", r.id, resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	var buf bytes.Buffer
	for r.state == "" {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return r, fmt.Errorf("stream %s: %w before the end event", r.id, err)
		}
		buf.Write(line)
		var ev server.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return r, fmt.Errorf("stream %s: %w", r.id, err)
		}
		switch ev.Type {
		case "interval":
			if r.points == nil {
				r.firstMs = ms(time.Since(t0))
			}
			r.points = append(r.points, *ev.Interval)
		case "end":
			r.jobMs, r.streamMs = ms(time.Since(t0)), ms(time.Since(ts))
			r.state = ev.State
		}
	}
	io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	r.stream = buf.Bytes()
	return r, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// spans fetches the request spans the server recorded for job id.
func (c *client) spans(id string) ([]span.Span, error) {
	resp, err := c.hc.Get(c.url + "/v1/jobs/" + id + "/spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []span.Span
	dec := json.NewDecoder(resp.Body)
	for {
		var s span.Span
		if err := dec.Decode(&s); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// counter reads one unlabeled counter from the Prometheus exposition.
func (c *client) counter(name string) (float64, error) {
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

// cacheStats is the cache block of /v1/stats.
type cacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Followers int64 `json:"singleflight_followers"`
}

func (c *client) cacheStats() (cacheStats, error) {
	var st struct {
		Cache cacheStats `json:"cache"`
	}
	err := c.getJSON("/v1/stats", &st)
	return st.Cache, err
}

// dupLeader is one daemon-dup spec after the cache fill: its stream as
// the leader sent it and its output figures.
type dupLeader struct {
	stream     []byte
	cycles     int64
	injections int64
	errSum     float64
	errPoints  int
}

// daemonRun is the state of one daemon workload run.
type daemonRun struct {
	dup     bool
	seed    uint64
	d       *daemon
	clients []*client
	leaders []dupLeader
	next    atomic.Int64 // next job number
	o       *outcome
	mu      sync.Mutex // guards o while the clients run

	// reproduce collects daemon-fresh jobs whose final series the traced
	// loop must reproduce.
	reproduce []reproJob
}

type reproJob struct {
	spec   server.JobSpec
	series []server.SeriesJSON
}

// reproJobs is how many daemon-fresh jobs the traced run re-simulates.
const reproJobs = 8

func runDaemon(dup bool, seed uint64, seconds float64, trace bool) (*outcome, error) {
	dr := &daemonRun{dup: dup, seed: seed, o: &outcome{rep: newReport()}}

	// Set-up, setupReps times (the median is setup_s): start the daemon
	// and either run a warm-up job of each profile (daemon-fresh) or fill
	// the cache with every daemon-dup spec. The last daemon stays up for
	// timing.
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		if dr.d != nil {
			dr.d.close()
			dr.d = nil
		}
		t0 := time.Now()
		if err := dr.setUp(rep); err != nil {
			if dr.d != nil {
				dr.d.close()
			}
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer dr.d.close()
	cs0, err := dr.clients[0].cacheStats()
	if err != nil {
		return nil, err
	}
	frames0, err := dr.clients[0].counter("avfd_store_frames_total")
	if err != nil {
		return nil, err
	}

	span := seconds
	if trace {
		span = seconds / 2
	}
	base := dr.timed(span, false)
	setE2E(dr.o.rep, base, setup)
	if !trace {
		return dr.o, nil
	}

	// Traced half: the same loop, also fetching each job's server spans,
	// under a CPU profile.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := dr.timed(seconds/2, true)
	pprof.StopCPUProfile()
	r := dr.o.rep
	r.set("tracing.overhead_share", "ratio",
		(float64(traced.cpu)/float64(traced.jobs))/(float64(base.cpu)/float64(base.jobs))-1)
	setRuntime(r, base)

	cs1, err := dr.clients[0].cacheStats()
	if err != nil {
		return nil, err
	}
	frames1, err := dr.clients[0].counter("avfd_store_frames_total")
	if err != nil {
		return nil, err
	}
	hits, follow := cs1.Hits-cs0.Hits, cs1.Followers-cs0.Followers
	submits := float64(max(hits+follow+cs1.Misses-cs0.Misses, 1))
	r.set("cache.hit_ratio", "ratio", float64(hits)/submits)
	r.set("cache.follower_ratio", "ratio", float64(follow)/submits)
	r.set("store.frames_per_job", "count", (frames1-frames0)/float64(base.jobs+traced.jobs))
	dr.setSpanLayers(traced)

	if dup {
		setCycleNA(r, "daemon-dup runs no simulation in the timed window")
		return dr.o, nil
	}
	shares, err := stepShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	// The cycle loop inside the daemon has no spans; re-simulate some of
	// the jobs it ran through the traced loop, which must reproduce the
	// series the daemon returned.
	var lt layerTimes
	for _, rj := range dr.reproduce {
		dr.o.attempted++
		out, err := tracedRun(runConfigOf(rj.spec), &lt)
		if err != nil {
			dr.o.fail("traced %s seed %d: %v", rj.spec.Benchmark, rj.spec.Seed, err)
			continue
		}
		if len(out.online) != len(rj.series) {
			dr.o.fail("traced loop of %s seed %d gives %d series, the daemon %d", rj.spec.Benchmark, rj.spec.Seed, len(out.online), len(rj.series))
			continue
		}
		for i, ss := range rj.series {
			if !reflect.DeepEqual(ss.Online, out.online[i]) || !reflect.DeepEqual(ss.Reference, out.reference[i]) {
				dr.o.fail("traced loop of %s seed %d differs from the daemon's %s series", rj.spec.Benchmark, rj.spec.Seed, ss.Structure)
				break
			}
		}
	}
	setCycleLayers(r, &lt, shares, len(dr.reproduce))
	return dr.o, nil
}

// setUp starts a daemon and prepares it for timing.
func (dr *daemonRun) setUp(rep int) error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	dr.d = d
	for _, c := range dr.clients {
		c.hc.CloseIdleConnections()
	}
	dr.clients = dr.clients[:0]
	for i := 0; i < daemonClients; i++ {
		dr.clients = append(dr.clients, newClient(d.url))
	}
	if !dr.dup {
		// Warm-up jobs from outside the timed sequence, one per profile.
		for i := range simBenchmarks {
			if _, err := dr.submit(dr.clients[0], daemonSpec(dr.seed^0xfeed, rep*len(simBenchmarks)+i)); err != nil {
				return err
			}
		}
		return nil
	}
	dr.leaders = make([]dupLeader, dupSpecs)
	errs := make(chan error, daemonClients)
	for ci, c := range dr.clients {
		go func(ci int, c *client) {
			for i := ci; i < dupSpecs; i += daemonClients {
				r, err := dr.submit(c, daemonSpec(0, i))
				if err != nil {
					errs <- err
					return
				}
				st, err := dr.status(c, r)
				if err != nil {
					errs <- err
					return
				}
				l := dupLeader{stream: r.stream}
				l.cycles, l.injections = delivered(r.points)
				l.errSum, l.errPoints = seriesErr(st.Result.Series)
				dr.leaders[i] = l
			}
			errs <- nil
		}(ci, c)
	}
	for range dr.clients {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	return err
}

func (dr *daemonRun) submit(c *client, spec server.JobSpec) (jobRun, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return jobRun{}, err
	}
	r, err := c.run(b)
	if err == nil && r.state != "done" {
		err = fmt.Errorf("job %s (%s seed %d) ended %q", r.id, spec.Benchmark, spec.Seed, r.state)
	}
	return r, err
}

// status fetches a finished job and checks that its streamed points
// equal its final intervals and that it carries a result.
func (dr *daemonRun) status(c *client, r jobRun) (server.JobStatus, error) {
	var st server.JobStatus
	if err := c.getJSON("/v1/jobs/"+r.id, &st); err != nil {
		return st, err
	}
	if st.State != "done" || st.Result == nil {
		return st, fmt.Errorf("job %s: state %q, result present %v", r.id, st.State, st.Result != nil)
	}
	if !reflect.DeepEqual(st.Intervals, r.points) {
		return st, fmt.Errorf("job %s: %d streamed points differ from the %d final intervals", r.id, len(r.points), len(st.Intervals))
	}
	return st, nil
}

// delivered is the simulated cycles and injections behind a job's
// estimates: the furthest interval end and the summed injections.
func delivered(pts []server.IntervalPoint) (cycles, injections int64) {
	for _, p := range pts {
		cycles = max(cycles, p.EndCycle)
		injections += int64(p.Injections)
	}
	return cycles, injections
}

func seriesErr(series []server.SeriesJSON) (sum float64, points int) {
	for _, ss := range series {
		o := jobOut{online: [][]float64{ss.Online}, reference: [][]float64{ss.Reference}}
		s, n := o.absErr()
		sum += s
		points += n
	}
	return sum, points
}

// timed runs the closed loop on every client for the given seconds and
// checks each job's output. With traced set each job's spans are
// fetched after its stream ends.
func (dr *daemonRun) timed(seconds float64, traced bool) *window {
	w := newWindow(time.Duration(seconds / daemonParts * float64(time.Second)))
	deadline := w.t0.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range dr.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, r, err := dr.one(c, int(dr.next.Add(1)-1), traced)
				dr.mu.Lock()
				dr.o.attempted++
				if err != nil {
					dr.o.fail("%v", err)
				} else {
					w.add(s)
					if traced {
						w.runs = append(w.runs, r)
					}
				}
				dr.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.finish()
	return w
}

// one runs job k on client c and checks it.
func (dr *daemonRun) one(c *client, k int, traced bool) (jobSample, jobRun, error) {
	var spec server.JobSpec
	var leader *dupLeader
	if dr.dup {
		i := dupPick(dr.seed, k)
		spec, leader = daemonSpec(0, i), &dr.leaders[i]
	} else {
		spec = daemonSpec(dr.seed, k)
	}
	r, err := dr.submit(c, spec)
	if err != nil {
		return jobSample{}, r, err
	}
	s := jobSample{jobMs: r.jobMs, firstMs: r.firstMs}
	if dr.dup {
		if !bytes.Equal(r.stream, leader.stream) {
			return s, r, fmt.Errorf("job %s: replayed stream of %s seed %d differs from its leader's", r.id, spec.Benchmark, spec.Seed)
		}
		s.cycles, s.injections, s.errSum, s.errPoints = leader.cycles, leader.injections, leader.errSum, leader.errPoints
	} else {
		st, err := dr.status(c, r)
		if err != nil {
			return s, r, err
		}
		s.cycles, s.injections = delivered(r.points)
		s.errSum, s.errPoints = seriesErr(st.Result.Series)
		dr.mu.Lock()
		if traced && len(dr.reproduce) < reproJobs {
			dr.reproduce = append(dr.reproduce, reproJob{spec: spec, series: st.Result.Series})
		}
		dr.mu.Unlock()
	}
	if traced {
		if r.spans, err = c.spans(r.id); err != nil {
			return s, r, err
		}
	}
	return s, r, nil
}

// setSpanLayers sets the daemon layer metrics from a traced window: the
// client's own clocks and the spans the server recorded.
func (dr *daemonRun) setSpanLayers(w *window) {
	r := dr.o.rep
	byName := map[string][]float64{}
	var submit, stream, runSelf []float64
	for _, jr := range w.runs {
		submit = append(submit, jr.submitMs)
		stream = append(stream, jr.streamMs)
		var run, wal float64
		hasRun := false
		for _, s := range jr.spans {
			d := s.DurationSeconds * 1000
			byName[s.Name] = append(byName[s.Name], d)
			switch s.Name {
			case "run":
				run, hasRun = run+d, true
			case "wal":
				wal += d
			}
		}
		if hasRun {
			runSelf = append(runSelf, run-wal)
		}
	}
	r.setPct("server.submit_ms_p50", "ms", submit, 0.5)
	r.setPct("server.submit_ms_p90", "ms", submit, 0.9)
	r.setPct("server.stream_ms_p50", "ms", stream, 0.5)
	spanPct := func(metric, name string, p float64, why string) {
		if xs := byName[name]; len(xs) > 0 {
			r.setPct(metric, "ms", xs, p)
		} else {
			r.na(metric, "ms", why)
		}
	}
	const hit = "cache hits record no such span"
	spanPct("server.admission_ms_p50", "admission", 0.5, "no admission spans")
	spanPct("sched.queue_ms_p50", "queue", 0.5, hit)
	spanPct("sched.queue_ms_p90", "queue", 0.9, hit)
	spanPct("sched.dispatch_ms_p50", "dispatch", 0.5, hit)
	spanPct("experiment.run_ms_p50", "run", 0.5, hit)
	spanPct("experiment.run_ms_p90", "run", 0.9, hit)
	spanPct("store.wal_ms_p50", "wal", 0.5, hit)
	spanPct("store.wal_ms_p90", "wal", 0.9, hit)
	if len(runSelf) > 0 {
		r.setPct("experiment.run_self_ms_p50", "ms", runSelf, 0.5)
	} else {
		r.na("experiment.run_self_ms_p50", "ms", hit)
	}
}

// setDaemonNA marks the daemon layer metrics as not measurable.
func setDaemonNA(r *report, why string) {
	for _, name := range []string{
		"server.submit_ms_p50", "server.submit_ms_p90", "server.admission_ms_p50", "server.stream_ms_p50",
		"cache.hit_ratio", "cache.follower_ratio", "sched.queue_ms_p50", "sched.queue_ms_p90",
		"sched.dispatch_ms_p50", "store.wal_ms_p50", "store.wal_ms_p90", "store.frames_per_job",
		"experiment.run_self_ms_p50",
	} {
		r.na(name, unitOf(name), why)
	}
}

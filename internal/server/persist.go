package server

// Recovery and retention: rebuilding the job table from the WAL after a
// restart (terminal jobs restored read-only, interrupted jobs resumed
// by deterministic re-execution, their already-delivered output dropped
// by the job's observer) and bounding the job history (TTL +
// max-completed cap).

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"avfsim/internal/pipeline"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// Recover rebuilds the job table from the store after a restart. Call
// it once, after New and before serving traffic:
//
//   - terminal jobs (done/failed/canceled) are restored read-only —
//     status, intervals, and final series all come back from the WAL;
//   - non-terminal jobs (queued, running, or persisted as "interrupted"
//     by a drain) are re-enqueued. The simulator is a pure function of
//     (spec, seed), so the resumed run re-executes from cycle 0 with
//     emission suppressed below the checkpoint: clients see intervals
//     k..N byte-identical to an uninterrupted run, each exactly once;
//   - jobs whose spec no longer parses (or whose resubmission fails)
//     are marked failed rather than silently dropped.
//
// Recover never returns an error for individual bad jobs — only the
// count of re-enqueued runs; per-job failures are logged and orphaned.
func (s *Server) Recover() (resumed int, err error) {
	if s.st == nil {
		return 0, nil
	}
	// The result cache rebuilds first so recovered duplicates can restore
	// from it instead of re-running.
	s.recoverCacheEntries()
	for _, jr := range s.st.Jobs() {
		j := &job{
			id:        jr.ID,
			submitted: jr.Submitted,
			subs:      map[chan IntervalPoint]struct{}{},
		}
		s.bumpSeq(jr.ID)

		var spec JobSpec
		if e := json.Unmarshal(jr.Spec, &spec); e != nil {
			s.orphan(j, fmt.Sprintf("recover: bad persisted spec: %v", e))
			continue
		}
		j.spec = spec

		// Preload the persisted per-interval estimates so status/stream
		// replay serves them immediately, and derive the per-structure
		// resume floor (interval count already durable).
		skipTo := map[string]int{}
		badPoint := false
		for _, raw := range jr.Intervals {
			var pt IntervalPoint
			if e := json.Unmarshal(raw, &pt); e != nil {
				badPoint = true
				break
			}
			j.points = append(j.points, pt)
			if pt.Interval+1 > skipTo[pt.Structure] {
				skipTo[pt.Structure] = pt.Interval + 1
			}
		}
		if badPoint {
			s.orphan(j, "recover: corrupt persisted interval record")
			continue
		}

		// Trace continuity: the persisted traceparent pins the trace ID
		// (status keeps answering with it), and a terminal job's span
		// summary re-seeds the span ring so /v1/jobs/{id}/spans and
		// /v1/traces keep serving across restarts.
		if s.spans != nil {
			if t, _, _, e := span.ParseTraceparent(spec.Traceparent); e == nil {
				j.trace = t
			}
			if jr.Terminal() && jr.Trace != nil {
				var spans []span.Span
				if e := json.Unmarshal(jr.Trace, &spans); e == nil {
					for _, sp := range spans {
						s.spans.Record(sp)
					}
				}
			}
		}

		if jr.Terminal() {
			j.ended = true
			j.stateOverride = jr.State
			j.errMsg = jr.Error
			j.finishedAt = jr.Updated
			if jr.Result != nil {
				var res JobResult
				if e := json.Unmarshal(jr.Result, &res); e == nil {
					j.result = &res
				}
			}
			s.mu.Lock()
			s.jobs[j.id] = j
			s.mu.Unlock()
			continue
		}

		rc, e := spec.runConfig()
		if e != nil {
			s.orphan(j, fmt.Sprintf("recover: spec no longer valid: %v", e))
			continue
		}
		// Recovered jobs route through the cache like fresh submissions:
		// an already-completed identical run (this boot or persisted)
		// restores this job terminal, an identical relaunched run absorbs
		// it as a follower, and otherwise it leads.
		if s.recoverThroughCache(j) {
			resumed++
			if s.recoveredJobs != nil {
				s.recoveredJobs.Inc()
			}
			continue
		}
		// The job's observer drops the intervals persisted before the
		// crash (see jobObserver).
		j.skipTo = skipTo
		if e := s.launch(j, rc); e != nil {
			if j.cacheLead {
				s.cache.Abort(j.cacheKey, e)
			}
			s.orphan(j, fmt.Sprintf("recover: resubmit: %v", e))
			continue
		}
		resumed++
		if s.recoveredJobs != nil {
			s.recoveredJobs.Inc()
		}
		s.log.Info("job recovered", "job", j.id, "benchmark", spec.Benchmark,
			"persisted_intervals", len(j.points), "start_interval", startInterval(skipTo, rc.Structures))
	}
	s.sweepRetention(time.Now())
	return resumed, nil
}

// orphan registers a job that cannot be resumed as terminally failed
// (visible in listings with its error, rather than vanishing).
func (s *Server) orphan(j *job, msg string) {
	j.ended = true
	j.stateOverride = "failed"
	j.errMsg = msg
	j.finishedAt = time.Now()
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	if s.st != nil {
		if err := s.st.AppendState(j.id, "failed", msg); err != nil && !errors.Is(err, store.ErrClosed) {
			s.log.Error("persist orphan state", "job", j.id, "error", err)
		}
	}
	s.log.Warn("job orphaned", "job", j.id, "error", msg)
}

// bumpSeq advances the id allocator past a recovered "job-N" id so
// fresh submissions never collide with restored jobs.
func (s *Server) bumpSeq(id string) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// startInterval is the resume fast-forward point: the minimum persisted
// interval count across the monitored structures. Every structure has
// all intervals below it durable, so a resumed job records interval
// spans and telemetry estimates only from it on; points beyond it (a
// structure that got its interval k out just before the crash) are
// filtered per structure.
func startInterval(skipTo map[string]int, structs []pipeline.Structure) int {
	if len(structs) == 0 {
		structs = pipeline.PaperStructures
	}
	min := -1
	for _, st := range structs {
		n := skipTo[st.String()]
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// janitorPeriod is how often retention sweeps run between job
// completions (which also trigger a sweep).
const janitorPeriod = 30 * time.Second

func (s *Server) janitor() {
	t := time.NewTicker(janitorPeriod)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sweepRetention(now)
		case <-s.janitorStop:
			return
		}
	}
}

// sweepRetention evicts terminal jobs past the TTL or beyond the
// newest retMax, from both the in-memory table and the store. Running
// jobs are never touched.
func (s *Server) sweepRetention(now time.Time) {
	if s.retTTL <= 0 && s.retMax <= 0 {
		return
	}
	type fin struct {
		j  *job
		at time.Time
	}
	s.mu.Lock()
	done := make([]fin, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		// streamRefs > 0 pins the job: a reader is mid-replay on one of
		// its NDJSON endpoints, and evicting underneath it would truncate
		// the stream. The next sweep collects it once the reader detaches.
		if j.ended && j.streamRefs == 0 {
			done = append(done, fin{j, j.finishedAt})
		}
		j.mu.Unlock()
	}
	sort.Slice(done, func(i, k int) bool { return done[i].at.After(done[k].at) })
	var evict []*job
	for i, f := range done {
		switch {
		case s.retTTL > 0 && now.Sub(f.at) > s.retTTL:
			evict = append(evict, f.j)
		case s.retMax > 0 && i >= s.retMax:
			evict = append(evict, f.j)
		}
	}
	for _, j := range evict {
		delete(s.jobs, j.id)
	}
	s.mu.Unlock()

	for _, j := range evict {
		if s.st != nil {
			if err := s.st.Evict(j.id); err != nil && !errors.Is(err, store.ErrClosed) {
				s.log.Error("evict from store", "job", j.id, "error", err)
			}
		}
		if s.evictedJobs != nil {
			s.evictedJobs.Inc()
		}
		s.log.Info("job evicted", "job", j.id, "finished", j.finishedAt)
	}
}

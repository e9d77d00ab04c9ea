package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
	"avfsim/internal/softarch"
	"avfsim/internal/workload"
)

// simBenchmarks are the sim-fused job profiles, from the highest IPC
// (most host work per cycle) to the lowest.
var simBenchmarks = []string{"sixtrack", "mesa", "swim", "bzip2"}

// simTraceSeed is the workload seed of every sim-fused job. A profile's
// host cost per cycle varies by up to a third between trace seeds, so the
// corpus is fixed rather than drawn from --seed: every run measures the
// same mix, every pass (a part) holds one job of each profile, and
// golden.json pins every job's output. --seed draws the order of each
// pass.
const simTraceSeed = 1

// setupReps is how many times a workload sets up; setup_s is the median.
const setupReps = 5

// simJob is one corpus entry.
type simJob struct {
	name string // "<profile>/<trace seed>", the golden.json key
	rc   experiment.RunConfig
}

// simCorpus is the sim-fused corpus: one paper-shaped interval
// (M = N = 1000, classic engine, SoftArch reference on) of each profile.
func simCorpus() []simJob {
	var jobs []simJob
	for _, b := range simBenchmarks {
		jobs = append(jobs, simJob{
			name: fmt.Sprintf("%s/%d", b, simTraceSeed),
			rc: experiment.RunConfig{
				Benchmark: b, Scale: 1, Seed: simTraceSeed, M: 1000, N: 1000, Intervals: 1,
				Structures: append([]pipeline.Structure(nil), pipeline.PaperStructures...),
			},
		})
	}
	return jobs
}

// jobOut is what the output checks and metrics need from one finished
// simulation, whichever way it was driven.
type jobOut struct {
	online, reference [][]float64 // per monitored structure
	stats             pipeline.Stats
	injections        int64 // injections behind the delivered estimates
}

func fromResult(res *experiment.Result) jobOut {
	o := jobOut{stats: res.Stats}
	for _, ss := range res.Series {
		o.online = append(o.online, ss.Online)
		o.reference = append(o.reference, ss.Reference)
		for _, e := range res.Estimator.Estimates(ss.Structure) {
			if e.Interval < res.Intervals {
				o.injections += int64(e.Injections)
			}
		}
	}
	return o
}

// digest hashes the online and reference series and the pipeline
// counters: two runs with equal digests produced the same output.
func (o jobOut) digest() string {
	h := sha256.New()
	for i := range o.online {
		fmt.Fprintf(h, "online %v\nreference %v\n", o.online[i], o.reference[i])
	}
	fmt.Fprintf(h, "%+v\n", o.stats)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// absErr is the summed |online − reference| over all structure×interval
// points and the number of points.
func (o jobOut) absErr() (sum float64, points int) {
	for i := range o.online {
		for k := range o.online[i] {
			sum += math.Abs(o.online[i][k] - o.reference[i][k])
			points++
		}
	}
	return sum, points
}

// runSimFused runs the sim-fused workload: passes over the corpus through
// experiment.RunCtx, in an order drawn from the seed, until the time is
// up. Every job must reproduce its golden.json digest.
func runSimFused(seed uint64, seconds float64, trace bool) (*outcome, error) {
	corpus := simCorpus()
	o := &outcome{rep: newReport()}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))

	// Set-up: resolve the profiles and run each job briefly, warming the
	// code and the allocator. setupReps times; the median is setup_s.
	var setup []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, j := range corpus {
			rc := j.rc
			rc.M, rc.N = 300, 300
			if _, err := experiment.Run(rc); err != nil {
				return nil, fmt.Errorf("set-up run of %s: %w", j.name, err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	span := seconds
	if trace {
		span = seconds / 2
	}
	base, runMs := timeSim(corpus, rng, span, o)
	setE2E(o.rep, base, setup)
	if !trace {
		return o, nil
	}

	// Traced half: passes through the traced loop, under a CPU profile.
	// Each job must reproduce the digest RunCtx produces.
	var lt layerTimes
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	deadline := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	jobs := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, i := range rng.Perm(len(corpus)) {
			j := corpus[i]
			o.attempted++
			jobs++
			out, err := tracedRun(j.rc, &lt)
			if err != nil {
				o.fail("traced %s: %v", j.name, err)
				continue
			}
			if d := out.digest(); d != golden[j.name] {
				o.fail("traced loop of %s gives digest %s, golden.json has %q", j.name, d, golden[j.name])
			}
		}
	}
	tracedCPU := cpuTime() - cpu0
	pprof.StopCPUProfile()
	shares, err := stepShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	setCycleLayers(o.rep, &lt, shares, jobs)
	untraced := float64(base.cpu) / float64(base.cycles)
	o.rep.set("tracing.overhead_share", "ratio", float64(tracedCPU)/float64(lt.cycles)/untraced-1)

	o.rep.setPct("experiment.run_ms_p50", "ms", runMs, 0.5)
	o.rep.setPct("experiment.run_ms_p90", "ms", runMs, 0.9)
	setRuntime(o.rep, base)
	setDaemonNA(o.rep, "sim-fused runs no daemon")
	return o, nil
}

// timeSim runs passes over the corpus through experiment.RunCtx for the
// given seconds (always at least one pass), each pass in a fresh order
// from rng, and checks every job against golden.json. A part is a pass.
// It also returns each job's RunCtx time.
func timeSim(corpus []simJob, rng *rand.Rand, seconds float64, o *outcome) (*window, []float64) {
	var runMs []float64
	w := newWindow(time.Hour) // parts are closed by pass instead
	deadline := w.t0.Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, i := range rng.Perm(len(corpus)) {
			j := corpus[i]
			o.attempted++
			// Every job starts from a collected heap, so its GC cycles end
			// at the same points of the job in every run and the live-heap
			// peak is a property of the job, not of the order.
			w.untimed(runtime.GC)
			var first time.Duration
			start := time.Now()
			rc := j.rc
			rc.OnInterval = func(core.Estimate) {
				if first == 0 {
					first = time.Since(start)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
			res, err := experiment.RunCtx(ctx, rc)
			cancel()
			took := time.Since(start)
			if err != nil {
				o.fail("%s: %v", j.name, err)
				continue
			}
			out := fromResult(res)
			if d := out.digest(); d != golden[j.name] {
				o.fail("%s: digest %s, golden.json has %q", j.name, d, golden[j.name])
				continue
			}
			s := jobSample{jobMs: ms(took), firstMs: ms(first), cycles: out.stats.Cycles, injections: out.injections}
			s.errSum, s.errPoints = out.absErr()
			w.add(s)
			runMs = append(runMs, s.jobMs)
		}
		w.closePart()
	}
	w.finish()
	return w, runMs
}

// layerTimes accumulates the traced loop's per-layer clocks and counts.
type layerTimes struct {
	cycles                int64
	stepNs, tickNs        int64
	nextNs, nextCalls     int64
	failNs                int64
	hookNs, hookCalls     int64
	flushNs               int64
	newNs                 int64
	newAlloc              uint64
	injections, dropMarks int64
}

var clockBase = time.Now()

// nanotime reads the monotonic clock only.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// timedSource wraps the trace generator, timing every Next.
type timedSource struct {
	src interface{ Next() (isa.Inst, bool) }
	lt  *layerTimes
}

func (s *timedSource) Next() (isa.Inst, bool) {
	t := nanotime()
	in, ok := s.src.Next()
	s.lt.nextNs += nanotime() - t
	s.lt.nextCalls++
	return in, ok
}

// tracedRun drives one job through the same public calls
// experiment.RunCtx makes — workload source, pipeline.New,
// core.NewEstimator, softarch.NewAnalyzer, SetHooks, the Step/Tick loop,
// Flush — with a timer around each. The per-interval utilization,
// occupancy and feature samplers are left out: they observe the pipeline
// once per interval and feed no series the digest covers.
func tracedRun(rc experiment.RunConfig, lt *layerTimes) (jobOut, error) {
	prof, err := workload.ByName(rc.Benchmark)
	if err != nil {
		return jobOut{}, err
	}
	if rc.Scale != 1 {
		prof = workload.Scale(prof, rc.Scale)
	}
	src, err := prof.Source(rc.Seed)
	if err != nil {
		return jobOut{}, err
	}
	lanes := rc.Lanes > 1

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := nanotime()
	cfg := config.Default()
	p, err := pipeline.New(&cfg, &timedSource{src: src, lt: lt})
	if err != nil {
		return jobOut{}, err
	}
	est, err := core.NewEstimator(p, core.Options{
		M: rc.M, N: rc.N, Structures: rc.Structures, Seed: rc.Seed, Lanes: rc.Lanes,
	})
	if err != nil {
		return jobOut{}, err
	}
	intervalCycles := rc.M * int64(rc.N)
	if lanes {
		minPool := rc.Lanes / len(rc.Structures)
		intervalCycles = rc.M * int64((rc.N+minPool-1)/minPool)
	}
	ref, err := softarch.NewAnalyzer(p, softarch.Options{IntervalCycles: intervalCycles, Window: rc.Window})
	if err != nil {
		return jobOut{}, err
	}
	lt.newNs += nanotime() - t0
	runtime.ReadMemStats(&m1)
	lt.newAlloc += m1.TotalAlloc - m0.TotalAlloc

	refHooks := ref.Hooks()
	hook := func(t int64) {
		lt.hookNs += nanotime() - t
		lt.hookCalls++
	}
	hooks := pipeline.Hooks{
		OnRetire: func(ev *pipeline.RetireEvent) {
			t := nanotime()
			refHooks.OnRetire(ev)
			hook(t)
		},
		OnRegWrite: func(f pipeline.RegFileID, phys int16, cycle, seq int64) {
			t := nanotime()
			refHooks.OnRegWrite(f, phys, cycle, seq)
			hook(t)
		},
		OnRegRead: func(f pipeline.RegFileID, phys int16, cycle, seq int64) {
			t := nanotime()
			refHooks.OnRegRead(f, phys, cycle, seq)
			hook(t)
		},
		OnTLBAccess: func(s pipeline.Structure, entry int, cycle int64, refill bool) {
			t := nanotime()
			refHooks.OnTLBAccess(s, entry, cycle, refill)
			hook(t)
		},
	}
	if lanes {
		hooks.OnFailureMask = func(mask pipeline.ErrMask, seq, cycle int64, class isa.Class) {
			t := nanotime()
			est.HandleFailureMask(mask, seq, cycle, class)
			lt.failNs += nanotime() - t
		}
	} else {
		hooks.OnFailure = func(s pipeline.Structure, seq, cycle int64, class isa.Class) {
			t := nanotime()
			est.HandleFailure(s, seq, cycle, class)
			lt.failNs += nanotime() - t
		}
	}
	p.SetHooks(hooks)

	// The same stop rule as RunCtx: a fixed cycle count for the classic
	// engine, every structure's Intervals estimates for the lane engine.
	totalCycles := intervalCycles * int64(rc.Intervals)
	capCycles := 4*totalCycles + 4*rc.M
	lastConcluded := int64(-1)
	lanesDone := func() bool {
		for _, s := range rc.Structures {
			if len(est.Estimates(s)) < rc.Intervals {
				return false
			}
		}
		return true
	}
	for {
		if lanes {
			if c := est.ConcludedInjections(); c != lastConcluded {
				lastConcluded = c
				if lanesDone() {
					break
				}
			}
			if p.Cycle() > capCycles {
				return jobOut{}, fmt.Errorf("lane run exceeded %d cycles", capCycles)
			}
		} else if p.Cycle() >= totalCycles+1 {
			break
		}
		t0 := nanotime()
		ok := p.Step()
		t1 := nanotime()
		if !ok {
			return jobOut{}, fmt.Errorf("trace ended after %d cycles", p.Cycle())
		}
		est.Tick()
		lt.stepNs += t1 - t0
		lt.tickNs += nanotime() - t1
	}
	t1 := nanotime()
	ref.Flush()
	lt.flushNs += nanotime() - t1

	out := jobOut{stats: p.Snapshot()}
	for _, s := range rc.Structures {
		online := make([]float64, rc.Intervals)
		copy(online, est.AVFSeries(s))
		out.online = append(out.online, online)
		out.reference = append(out.reference, ref.AVFSeries(s, rc.Intervals))
	}
	lt.cycles += out.stats.Cycles
	lt.injections += est.ConcludedInjections()
	lt.dropMarks += ref.DroppedMarks()
	return out, nil
}

// setCycleLayers sets the cycle-loop layer metrics from the traced loop.
func setCycleLayers(r *report, lt *layerTimes, shares map[string]float64, jobs int) {
	c := float64(max(lt.cycles, 1))
	j := float64(max(jobs, 1))
	r.set("trace.next_ns_per_cycle", "ns", float64(lt.nextNs)/c)
	r.set("trace.next_calls_per_cycle", "count", float64(lt.nextCalls)/c)
	r.set("pipeline.step_self_ns_per_cycle", "ns", float64(lt.stepNs-lt.nextNs-lt.hookNs-lt.failNs)/c)
	for _, st := range stepStages {
		r.set("pipeline."+st+"_share", "ratio", shares[st])
	}
	r.set("core.tick_ns_per_cycle", "ns", float64(lt.tickNs)/c)
	r.set("core.failure_ns_per_cycle", "ns", float64(lt.failNs)/c)
	r.set("core.injections_per_kcycle", "count", 1000*float64(lt.injections)/c)
	r.set("softarch.hook_ns_per_cycle", "ns", float64(lt.hookNs)/c)
	r.set("softarch.hook_calls_per_cycle", "count", float64(lt.hookCalls)/c)
	r.set("softarch.flush_ms_per_job", "ms", float64(lt.flushNs)/1e6/j)
	r.set("softarch.dropped_marks", "count", float64(lt.dropMarks))
	r.set("experiment.new_ms_per_job", "ms", float64(lt.newNs)/1e6/j)
	r.set("experiment.new_alloc_mb_per_job", "MB", float64(lt.newAlloc)/(1<<20)/j)
}

// setCycleNA marks the cycle-loop layer metrics as not measurable.
func setCycleNA(r *report, why string) {
	for _, name := range []string{
		"trace.next_ns_per_cycle", "trace.next_calls_per_cycle", "pipeline.step_self_ns_per_cycle",
		"core.tick_ns_per_cycle", "core.failure_ns_per_cycle", "core.injections_per_kcycle",
		"softarch.hook_ns_per_cycle", "softarch.hook_calls_per_cycle", "softarch.flush_ms_per_job",
		"softarch.dropped_marks", "experiment.new_ms_per_job", "experiment.new_alloc_mb_per_job",
	} {
		r.na(name, unitOf(name), why)
	}
	for _, st := range stepStages {
		r.na("pipeline."+st+"_share", "ratio", why)
	}
}

// unitOf gives a layer metric's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns_per_cycle"):
		return "ns"
	case strings.HasSuffix(name, "_ms_per_job"), strings.HasSuffix(name, "_p50"), strings.HasSuffix(name, "_p90"):
		return "ms"
	case strings.HasSuffix(name, "_mb_per_job"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	}
	return "count"
}

package main

import (
	"fmt"
	"time"
)

// jobSample is one completed job as the end-to-end metrics see it.
type jobSample struct {
	jobMs, firstMs float64
	cycles         int64 // simulated cycles behind the delivered estimates
	injections     int64
	errSum         float64
	errPoints      int
}

// part is one stretch of a timed window, reduced to the figures the
// metrics take from it. Every rate, percentile and heap peak is taken per
// part and the median over the parts reported, so a passing disturbance
// on the host moves one part rather than the result.
type part struct {
	jobs               int
	wall, cpu          time.Duration
	heapMB             float64 // live-heap peak
	steal              float64 // the host's steal share of CPU time (printed only)
	cycles, injections int64
	jobMs, firstMs     [2]float64 // p50, p90
}

// partBuf is the capacity the open part's job times start with. A part
// is reduced when it closes and its buffers reused, so the benchmark's own
// live heap stays flat however many jobs a run completes: a growing one
// would show in heap_peak_mb and make the GC run less often as a run
// goes on.
const partBuf = 1 << 15

// window is one timed stretch of a workload.
type window struct {
	parts      []part
	runs       []jobRun // daemon jobs of a traced window
	wall, cpu  time.Duration
	rt0, rt1   runtimeStats
	goroutines uint64 // peak
	t0         time.Time
	cpu0       time.Duration
	ps         *peakSampler

	// Totals over every job added, those of an unclosed part included.
	jobs      int
	cycles    int64
	errSum    float64
	errPoints int

	// The open part.
	cur       part
	curJobMs  []float64
	curFirst  []float64
	curT0     time.Time
	curCPU0   time.Duration
	curSteal0 [2]uint64 // hostCPU at the start of the part
	partEnd   time.Time
	partLen   time.Duration
}

// newWindow opens a window whose parts last partLen each.
func newWindow(partLen time.Duration) *window {
	w := &window{curJobMs: make([]float64, 0, partBuf), curFirst: make([]float64, 0, partBuf)}
	w.ps, w.rt0, w.t0, w.cpu0, w.partLen = startPeakSampler(), readRuntime(), time.Now(), cpuTime(), partLen
	w.curT0, w.curCPU0, w.partEnd = w.t0, w.cpu0, w.t0.Add(partLen)
	w.curSteal0[0], w.curSteal0[1] = hostCPU()
	return w
}

// add records a completed job and closes the part when its time is up.
func (w *window) add(s jobSample) {
	w.jobs++
	w.cycles += s.cycles
	w.errSum += s.errSum
	w.errPoints += s.errPoints
	w.cur.jobs++
	w.cur.cycles += s.cycles
	w.cur.injections += s.injections
	w.curJobMs = append(w.curJobMs, s.jobMs)
	w.curFirst = append(w.curFirst, s.firstMs)
	if !time.Now().Before(w.partEnd) {
		w.closePart()
	}
}

// closePart ends the open part; a part without jobs is dropped.
func (w *window) closePart() {
	now, cpu := time.Now(), cpuTime()
	steal, total := hostCPU()
	if p := w.cur; p.jobs > 0 {
		p.wall, p.cpu, p.heapMB = now.Sub(w.curT0), cpu-w.curCPU0, w.ps.takeHeapMB()
		if total > w.curSteal0[1] {
			p.steal = float64(steal-w.curSteal0[0]) / float64(total-w.curSteal0[1])
		}
		p.jobMs = [2]float64{percentile(w.curJobMs, 0.5), percentile(w.curJobMs, 0.9)}
		p.firstMs = [2]float64{percentile(w.curFirst, 0.5), percentile(w.curFirst, 0.9)}
		w.parts = append(w.parts, p)
	}
	w.cur, w.curJobMs, w.curFirst = part{}, w.curJobMs[:0], w.curFirst[:0]
	w.curT0, w.curCPU0, w.curSteal0 = now, cpu, [2]uint64{steal, total}
	w.partEnd = w.partEnd.Add(w.partLen)
}

// untimed runs f with the window's clocks stopped.
func (w *window) untimed(f func()) {
	t0, cpu0 := time.Now(), cpuTime()
	f()
	dWall, dCPU := time.Since(t0), cpuTime()-cpu0
	w.curT0, w.curCPU0 = w.curT0.Add(dWall), w.curCPU0+dCPU
	w.partEnd = w.partEnd.Add(dWall)
	w.t0, w.cpu0 = w.t0.Add(dWall), w.cpu0+dCPU
}

// finish closes the window; jobs of a part left open count in the totals
// but not in the parts.
func (w *window) finish() {
	w.wall, w.cpu, w.rt1 = time.Since(w.t0), cpuTime()-w.cpu0, readRuntime()
	w.goroutines = w.ps.close()
}

// partMedian is the median over the window's parts of f.
func (w *window) partMedian(f func(p part) float64) float64 {
	xs := make([]float64, 0, len(w.parts))
	for _, p := range w.parts {
		xs = append(xs, f(p))
	}
	return median(xs)
}

// setE2E sets every end-to-end metric from a timed window.
func setE2E(r *report, w *window, setup []float64) {
	for i, p := range w.parts {
		fmt.Printf("part %d: %d jobs, %.3f s wall, %.3f s cpu, host steal %.1f%%, %.4g MB heap peak, job ms p50 %.4g p90 %.4g\n",
			i, p.jobs, p.wall.Seconds(), p.cpu.Seconds(), 100*p.steal, p.heapMB, p.jobMs[0], p.jobMs[1])
	}
	r.set("setup_s", "s", median(setup))
	r.samples["setup_s"] = len(setup)
	r.set("avf_abs_err", "avf", w.errSum/float64(max(w.errPoints, 1)))
	r.samples["avf_abs_err"] = w.errPoints
	perPart := func(name, unit string, f func(p part) float64) {
		r.set(name, unit, w.partMedian(f))
		r.samples[name] = w.jobs
		r.parts[name] = len(w.parts)
	}
	perPart("sim_cycles_per_cpu_s", "cycles/s", func(p part) float64 { return float64(p.cycles) / p.cpu.Seconds() })
	perPart("injections_per_cpu_s", "inj/s", func(p part) float64 { return float64(p.injections) / p.cpu.Seconds() })
	perPart("jobs_per_s", "1/s", func(p part) float64 { return float64(p.jobs) / p.wall.Seconds() })
	perPart("cpu_ms_per_job", "ms", func(p part) float64 { return ms(p.cpu) / float64(p.jobs) })
	perPart("heap_peak_mb", "MB", func(p part) float64 { return p.heapMB })
	perPart("first_estimate_ms_p50", "ms", func(p part) float64 { return p.firstMs[0] })
	perPart("first_estimate_ms_p90", "ms", func(p part) float64 { return p.firstMs[1] })
	perPart("job_ms_p50", "ms", func(p part) float64 { return p.jobMs[0] })
	perPart("job_ms_p90", "ms", func(p part) float64 { return p.jobMs[1] })
}

// setRuntime sets the runtime layer metrics of a window.
func setRuntime(r *report, w *window) {
	r.set("runtime.gc_cpu_fraction", "ratio", gcFraction(w.rt0, w.rt1))
	if w.cycles > 0 {
		r.set("runtime.alloc_bytes_per_cycle", "B", float64(w.rt1.allocBytes-w.rt0.allocBytes)/float64(w.cycles))
	} else {
		r.na("runtime.alloc_bytes_per_cycle", "B", "no cycles are simulated in the timed window")
	}
	r.set("runtime.goroutines_peak", "count", float64(w.goroutines))
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fingerprint identifies the host and the code a result came from. The
// first four fields name the host; results are only compared when they
// agree. Revision is the build's VCS revision when it was built inside a
// git checkout; SourceDigest hashes the module's Go sources, so a build
// from a plain source tree is identified too.
type fingerprint struct {
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Revision     string `json:"revision"`
	SourceDigest string `json:"source_digest"`
}

func (f fingerprint) host() string {
	return fmt.Sprintf("%s | nproc=%d | GOMAXPROCS=%d | %s", f.CPUModel, f.NumCPU, f.GOMAXPROCS, f.GoVersion)
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Revision:     "none",
		SourceDigest: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Revision = s.Value
			}
		}
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every .go file of the module rooted at
// root, skipping the benchmark and hidden directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != filepath.Join(root, "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the host's CPU time counters from /proc/stat: the steal
// (time the hypervisor ran something else on this machine's CPUs) and
// the total over every state, in clock ticks. Both are 0 where the file
// cannot be read.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// runtimeStats reads the Go runtime counters the benchmark reports.
type runtimeStats struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}

// gcFraction is the share of CPU the GC used between a and b.
func gcFraction(a, b runtimeStats) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// peakSampler polls the live heap and goroutine count in the background
// and keeps their maxima.
type peakSampler struct {
	mu             sync.Mutex
	heap, routines uint64
	stop           chan struct{}
	wg             sync.WaitGroup
}

func startPeakSampler() *peakSampler {
	ps := &peakSampler{stop: make(chan struct{})}
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"}}
		for {
			metrics.Read(s)
			ps.mu.Lock()
			ps.heap = max(ps.heap, s[0].Value.Uint64())
			ps.routines = max(ps.routines, s[1].Value.Uint64())
			ps.mu.Unlock()
			select {
			case <-ps.stop:
				return
			case <-t.C:
			}
		}
	}()
	return ps
}

// takeHeapMB returns the live-heap peak in MB since the last call.
func (ps *peakSampler) takeHeapMB() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	h := ps.heap
	ps.heap = 0
	return float64(h) / (1 << 20)
}

// close stops the sampler and returns the goroutine peak.
func (ps *peakSampler) close() (goroutines uint64) {
	close(ps.stop)
	ps.wg.Wait()
	return ps.routines
}

// percentile is the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runCompare reads two --out files and prints, per workload and metric,
// each side's median and quartile spread and the change's ratio to the
// base. It refuses files recorded on different hosts.
func runCompare(arg string) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("--compare wants BASE,CHANGE")
	}
	var sides [2][]record
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			var r record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				return fmt.Errorf("%s: %w", p, err)
			}
			sides[i] = append(sides[i], r)
		}
		if len(sides[i]) == 0 {
			return fmt.Errorf("%s: no records", p)
		}
	}
	host := sides[0][0].Fingerprint.host()
	for i := range sides {
		for _, r := range sides[i] {
			if h := r.Fingerprint.host(); h != host {
				return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", host, h)
			}
		}
	}
	fmt.Println("host:", host)
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i := range sides {
		for _, r := range sides[i] {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				vals[i][k] = append(vals[i][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return keys[a].metric < keys[b].metric
	})
	fmt.Printf("%-14s %-34s %12s %8s %12s %8s %8s\n", "workload", "metric", "base", "iqr", "change", "iqr", "ratio")
	for _, k := range keys {
		b, c := vals[0][k], vals[1][k]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		mb, mc := median(b), median(c)
		ratio := math.NaN()
		if mb != 0 {
			ratio = mc / mb
		}
		fmt.Printf("%-14s %-34s %12.6g %7.1f%% %12.6g %7.1f%% %8.4f %s\n",
			k.workload, k.metric, mb, 100*iqrShare(b), mc, 100*iqrShare(c), ratio, units[k])
	}
	return nil
}

// iqrShare is the distance between the first and third quartile as a
// share of the median (the benchmark's spread measure).
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / math.Abs(m)
}

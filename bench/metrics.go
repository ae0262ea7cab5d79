package bench

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// MetricDef is one metric mmbench reports: its name and unit, as listed in
// BENCHMARK.json.
type MetricDef struct {
	Name, Unit string
}

// EndToEnd are the metrics an untraced run reports for every workload. An
// "op" is one sweep cell on the batch workloads and one HTTP request on
// serve-mixed.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// PerLayer are the metrics a traced run reports for every workload. A layer
// the workload does not pass through reports 0.
var PerLayer = []MetricDef{
	{"gen.build_s.sum", "s"},
	{"gen.build_ms.p50", "ms"},
	{"gen.builds", "count"},
	{"gen.edges_per_s", "1/s"},
	{"runtime.run_s.sum", "s"},
	{"runtime.run_ms.p50", "ms"},
	{"runtime.rounds", "count"},
	{"runtime.messages", "count"},
	{"runtime.wire_bytes", "bytes"},
	{"runtime.messages_per_s", "1/s"},
	{"sweep.emit_s.sum", "s"},
	{"sweep.row_bytes", "bytes"},
	{"sweep.busy_frac", "frac"},
	{"sweep.reorder_peak", "count"},
	{"sweep.violations", "count"},
	{"serve.handler_ms.p50", "ms"},
	{"serve.handler_ms.p99", "ms"},
	{"serve.resolve_ms.p50", "ms"},
	{"serve.cache_hit_ratio", "frac"},
	{"serve.cache_lookups", "count"},
	{"serve.store_put_ms.p50", "ms"},
	{"serve.refused", "count"},
	{"serve.run_s.sum", "s"},
	{"client.latency_p99_ms", "ms"},
	{"client.lag_ms.p99", "ms"},
	{"client.token_wait_ms.p99", "ms"},
	{"client.transport_ms.p50", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.unaccounted_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line mmbench prints last: whether every output check
// passed, how many ops were attempted and failed, and the metrics.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// metricSet collects the values of one run, refusing names outside defs so
// a typo cannot slip a metric past BENCHMARK.json.
type metricSet struct {
	defs map[string]string
	vals map[string]Metric
}

func newMetricSet(defs []MetricDef) *metricSet {
	m := &metricSet{defs: map[string]string{}, vals: map[string]Metric{}}
	for _, d := range defs {
		m.defs[d.Name] = d.Unit
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	unit, ok := m.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not in this run's metric list")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name] = Metric{Value: v, Unit: unit}
}

// complete reports the first listed metric the run did not set.
func (m *metricSet) complete(defs []MetricDef) error {
	for _, d := range defs {
		if _, ok := m.vals[d.Name]; !ok {
			return fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usage is a process resource snapshot: CPU time, current and peak RSS,
// bytes allocated and GC CPU time, plus the host's stolen and total CPU
// ticks.
type usage struct {
	cpu      time.Duration
	steal    int64
	ticks    int64
	rssMB    float64
	maxRSSKB int64
	alloc    uint64
	gcCPU    float64
	totalCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readUsage snapshots getrusage(RUSAGE_SELF) and, when withMem is set, the
// Go allocator and GC counters (ReadMemStats stops the world, so untraced
// runs skip it).
func readUsage(withMem bool) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSKB: ru.Maxrss,
	}
	// statm's second field is the resident set in pages.
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				u.rssMB = float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	// The first line of /proc/stat sums all CPUs: user nice system idle
	// iowait irq softirq steal …, in ticks.
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			for i, v := range f[1:] {
				n, _ := strconv.ParseInt(v, 10, 64) // a malformed field counts as 0
				u.ticks += n
				if i == 7 {
					u.steal = n
				}
			}
		}
	}
	if withMem {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		u.alloc = ms.TotalAlloc
		s := append([]metrics.Sample(nil), cpuMetrics...)
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
			u.gcCPU, u.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
		}
	}
	return u
}

// Host records where a result was measured.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// ThisHost describes the running machine.
func ThisHost() Host {
	h := Host{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Go:         goruntime.Version(),
		OS:         goruntime.GOOS + "/" + goruntime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// window is one slice of a run's measured time: a batch pass, or a fixed
// slice of a serve phase.
type window struct {
	ops   int
	dur   time.Duration
	cpu   time.Duration
	rssMB float64
	steal float64   // share of the host's CPU time the hypervisor took
	lat   []float64 // latency of the window's ops, ms
	lag   []float64 // how late the load generator fired them, ms (serve only)
}

// newWindow is the window between two usage snapshots.
func newWindow(ops int, dur time.Duration, prev, cur usage) window {
	return window{ops: ops, dur: dur, cpu: cur.cpu - prev.cpu, rssMB: cur.rssMB,
		steal: ratio(float64(cur.steal-prev.steal), float64(cur.ticks-prev.ticks))}
}

// maxSteal is the stolen share above which a window does not count: the
// hypervisor reports the CPU was elsewhere. On the 2-core calibration host,
// serve-mixed windows with 3-9% stolen had a latency p90 of 3.1-4.2 ms,
// against 1.7-2.2 ms in windows with at most 1%.
const maxSteal = 0.02

// cleanWindows leaves out the windows with more than maxSteal stolen; when
// fewer than a quarter are that clean, it keeps the quarter the hypervisor
// took least from. Windows are chosen by what the host reports, never by
// the values measured in them.
func cleanWindows(ws []window) []window {
	sorted := append([]window(nil), ws...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].steal < sorted[j].steal })
	n := 0
	for n < len(sorted) && sorted[n].steal <= maxSteal {
		n++
	}
	return sorted[:max(n, (len(sorted)+3)/4)]
}

// windowMetrics reduces the clean windows (see cleanWindows) to the
// end-to-end numbers: ops over time and CPU time over ops summed across the
// windows, latency p50 and p90 over every op of every window, and the median
// resident MB. Every clean window counts, slow ones included.
func windowMetrics(ws []window) (opsPerS, cpuMsPerOp, p50, p90, rssMB float64) {
	ws = cleanWindows(ws)
	var ops int
	var dur, cpu time.Duration
	var lat, rss []float64
	for _, w := range ws {
		if w.ops == 0 || w.dur <= 0 {
			continue
		}
		ops += w.ops
		dur += w.dur
		cpu += w.cpu
		lat = append(lat, w.lat...)
		rss = append(rss, w.rssMB)
	}
	return ratio(float64(ops), dur.Seconds()), ratio(ms(cpu), float64(ops)), quantile(lat, 0.5), quantile(lat, 0.9), median(rss)
}

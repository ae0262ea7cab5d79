package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStreamMetrics drives an instrumented stream and checks the recorded
// telemetry agrees with the rows: rows/cells counters equal the emitted
// count, the build/run/emit histograms saw one observation per cell, and
// the buffered-peak gauge matches the driver's own PeakBuffered stat.
func TestStreamMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	cfg := Config{
		Grids:       []string{"path:n=8..64,k=2"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        2,
		Seed:        1,
		CheckBounds: true,
		Metrics:     m,
	}
	var rows int
	stats, err := Stream(context.Background(), cfg, SinkFunc(func(r *Result) error { rows++; return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("no rows")
	}
	if got := m.Rows.Value(); got != int64(rows) {
		t.Errorf("rows counter %d, want %d", got, rows)
	}
	if got := m.CellsDone.Value(); got != int64(rows) {
		t.Errorf("cells-done counter %d, want %d", got, rows)
	}
	if got := m.CellsPlanned.Value(); got != int64(rows) {
		t.Errorf("cells-planned counter %d, want %d", got, rows)
	}
	for name, h := range map[string]*obs.Histogram{"build": m.Build, "run": m.Run, "emit": m.Emit} {
		if got := h.Count(); got != uint64(rows) {
			t.Errorf("%s histogram saw %d observations, want %d", name, got, rows)
		}
	}
	if got := m.Violations.Value(); got != 0 {
		t.Errorf("violations counter %d on a conforming sweep", got)
	}
	if got := int(m.BufferedPeak.Value()); got != stats.PeakBuffered {
		t.Errorf("buffered-peak gauge %d, want stats.PeakBuffered %d", got, stats.PeakBuffered)
	}
	if got := int(m.Buffered.Value()); got != 0 {
		t.Errorf("buffered gauge %d after drain, want 0", got)
	}
	// The registry exposition carries the same totals (what /metrics and
	// -metrics-out serve).
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"sweep_rows_total", "sweep_build_seconds_count", "sweep_reorder_buffered_peak"} {
		if !strings.Contains(b.String(), series) {
			t.Errorf("exposition missing %s", series)
		}
	}
}

// TestStreamMetricsResumeSkips pins the skipped-resume counter: cells
// counted by Config.Done count as skipped, not planned.
func TestStreamMetricsResumeSkips(t *testing.T) {
	base := Config{Grids: []string{"path:n=8..32,k=2"}, Seed: 1}
	plan, err := CellPlan(base)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	cfg := base
	cfg.Metrics = m
	cfg.Done = 1
	if _, err := Stream(context.Background(), cfg, SinkFunc(func(*Result) error { return nil })); err != nil {
		t.Fatal(err)
	}
	if got := m.CellsSkipped.Value(); got != 1 {
		t.Errorf("skipped counter %d, want 1", got)
	}
	if got := m.CellsPlanned.Value(); got != int64(len(plan)-1) {
		t.Errorf("planned counter %d, want %d", got, len(plan)-1)
	}
}

// TestStreamTraceSpans runs a traced stream and checks the JSONL span log:
// every cell contributes a resolve, run and emit span tagged with its cell
// ID, and every line is valid JSON.
func TestStreamTraceSpans(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{
		Grids:  []string{"path:n=8..16,k=2"},
		Seed:   1,
		Tracer: obs.NewTracer(&buf),
	}
	var rows int
	if _, err := Stream(context.Background(), cfg, SinkFunc(func(*Result) error { rows++; return nil })); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	cells := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev struct {
			Span  string `json:"span"`
			DurUS *int64 `json:"dur_us"`
			Cell  string `json:"cell"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line: %v\n%s", err, sc.Text())
		}
		if ev.DurUS == nil || ev.Cell == "" {
			t.Fatalf("span missing fields: %s", sc.Text())
		}
		counts[ev.Span]++
		cells[ev.Cell] = true
	}
	for _, span := range []string{"resolve", "run", "emit"} {
		if counts[span] != rows {
			t.Errorf("span %q appeared %d times, want %d", span, counts[span], rows)
		}
	}
	if len(cells) != rows {
		t.Errorf("%d distinct cell IDs in trace, want %d", len(cells), rows)
	}
}

// TestRunCellAllocParity is the alloc-regression gate of the
// observability layer: executing a cell under an ACTIVE registry must
// allocate exactly what an uninstrumented cell allocates — metric updates
// are atomic words, never allocations — so the engine round loop keeps
// its PR 2/3 allocation counts with metrics on.
func TestRunCellAllocParity(t *testing.T) {
	probe := Config{Grids: []string{"matching-union:n=4096,k=8"}, Seed: 1}
	cells, err := expand(probe)
	if err != nil {
		t.Fatal(err)
	}
	// Resolve the instance once and serve it from a map: a caching
	// provider formats its key through fmt, and that allocation noise
	// (below) is not the registry's.
	inst, err := RegistryProvider{}.Instance(InstanceSpec{
		Scenario: cells[0].scenario, Params: cells[0].params, Seed: cellSeed(probe, cells[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	base := probe
	base.Provider = storeProvider{cells[0].scenario: inst}
	instrumented := base
	instrumented.Metrics = NewMetrics(obs.NewRegistry())
	run := func(cfg Config) {
		if _, err := runCell(cfg, cells[0], nil); err != nil {
			t.Fatal(err)
		}
	}
	run(base) // warm the engine state
	run(instrumented)
	// The engine state and fmt's printers (used by Params.String) live in
	// sync.Pools. A GC empties a pool, and under the
	// race detector Put drops a random quarter of its items, so any single
	// run may refill scratch it would otherwise reuse. A dropped item only
	// ever adds allocations, so the fewest allocations over many
	// interleaved runs is each side's true per-cell count. Under the
	// detector only about one run in twenty-five reuses every pooled item,
	// so it takes ten times the samples.
	samples := 20
	if raceEnabled {
		samples = 200
	}
	// One P for the window, so a pooled item is never parked on another P.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	allocs := func(cfg Config) uint64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		run(cfg)
		goruntime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	plain, active := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < samples; i++ {
		plain = min(plain, allocs(base))
		active = min(active, allocs(instrumented))
	}
	t.Logf("allocs/cell (fewest of %d): plain %d, instrumented %d", samples, plain, active)
	if active > plain {
		t.Errorf("active registry raised per-cell allocations: %d vs %d", active, plain)
	}
}

// BenchmarkStreamMetricsOverhead measures the instrumentation tax on a
// many-cell sweep: the identical Config streamed with a nil registry vs an
// active one (BENCH_pr8 records the <2%-target delta).
func BenchmarkStreamMetricsOverhead(b *testing.B) {
	base := Config{
		Grids:    []string{"path:n=8..128,k=2"},
		Algos:    []string{"greedy", "proposal"},
		Reps:     10,
		Seed:     1,
		Provider: NewCachingProvider(RegistryProvider{}, 0),
	}
	for _, mode := range []string{"nil", "active"} {
		b.Run(mode, func(b *testing.B) {
			cfg := base
			if mode == "active" {
				cfg.Metrics = NewMetrics(obs.NewRegistry())
			}
			sink := NewJSONLSink(io.Discard)
			if _, err := Stream(context.Background(), cfg, sink); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Stream(context.Background(), cfg, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStartProgress exercises the periodic reporter: lines carry the
// done/planned counts and a rows/s figure, and stop emits a final line.
func TestStartProgress(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	m.CellsPlanned.Add(10)
	m.CellsDone.Add(4)
	m.Rows.Add(4)
	var mu syncBuffer
	stop := m.StartProgress(&mu, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	m.CellsDone.Add(6)
	m.Rows.Add(6)
	stop()
	out := mu.String()
	if !strings.Contains(out, "/10 cells") || !strings.Contains(out, "rows/s") {
		t.Errorf("progress lines malformed:\n%s", out)
	}
	if !strings.Contains(out, "progress: 10/10 cells (100.0%)") {
		t.Errorf("final line missing completion:\n%s", out)
	}
	// A nil Metrics reporter is a no-op that must not panic.
	var nilM *Metrics
	nilM.StartProgress(io.Discard, time.Millisecond)()
}

// syncBuffer is a mutex-guarded bytes.Buffer (the reporter goroutine
// writes while the test reads).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

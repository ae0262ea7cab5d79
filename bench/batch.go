package bench

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// batchSpec is one pass of a batch workload: a fixed sweep, written as
// JSONL to a file the way mmsweep writes it. A run repeats passes, each on
// fresh seeds, until its measuring time is up.
type batchSpec struct {
	grids         []string
	algos         []string
	reps          int
	cellWorkers   int
	engineWorkers int
	checkBounds   bool
}

func (s batchSpec) config(seed int64, reps int) sweep.Config {
	return sweep.Config{
		Grids:         s.grids,
		Algos:         s.algos,
		Reps:          reps,
		Seed:          seed,
		CellWorkers:   s.cellWorkers,
		EngineWorkers: s.engineWorkers,
		CheckBounds:   s.checkBounds,
	}
}

// passSeed is the sweep seed of pass p: every pass sweeps new instances,
// and pass 0 of seed 1 is the one whose output digest is pinned.
func passSeed(seed int64, workload string, p int) int64 {
	return gen.SubSeed(seed, "mmbench", workload, strconv.Itoa(p))
}

// passStats is what one pass measured.
type passStats struct {
	cells  int
	wall   time.Duration
	lat    []float64 // per-cell latency, ms
	digest string

	// Layer accounting, filled on traced passes only.
	build       []float64 // per-cell instance resolution, ms
	edges       int64
	emit        time.Duration
	rowBytes    int64
	rounds      int64
	messages    int64
	wireBytes   int64
	reorderPeak int
	violations  int
}

// cellRecorder sits on both public seams of one pass: as the
// sweep.InstanceProvider it sees each cell start and times instance
// construction; as the sweep.Sink it times the JSONL emit, closes the
// cell's latency (start → row written) and hands the row to the checker.
type cellRecorder struct {
	inner  sweep.InstanceProvider
	sink   sweep.Sink
	check  *checker
	spans  *spanLog
	traced bool

	mu      sync.Mutex
	started map[string][]time.Time // by instance ID, in call order
	st      passStats
}

// Instance implements sweep.InstanceProvider.
func (c *cellRecorder) Instance(spec sweep.InstanceSpec) (*gen.Instance, error) {
	key := spec.ID()
	t0 := time.Now()
	c.mu.Lock()
	c.started[key] = append(c.started[key], t0)
	c.mu.Unlock()
	inst, err := c.inner.Instance(spec)
	if c.traced {
		d := time.Since(t0)
		c.spans.add("cell.build", key, t0, d)
		c.mu.Lock()
		c.st.build = append(c.st.build, ms(d))
		if inst != nil {
			c.st.edges += int64(inst.G.NumEdges())
		}
		c.mu.Unlock()
	}
	return inst, err
}

// Emit implements sweep.Sink. Stream calls it from one goroutine at a time.
func (c *cellRecorder) Emit(r *sweep.Result) error {
	t0 := time.Now()
	if err := c.sink.Emit(r); err != nil {
		return err
	}
	t1 := time.Now()
	key := instanceID(r)
	c.mu.Lock()
	q := c.started[key]
	if len(q) == 0 {
		c.mu.Unlock()
		c.check.fail("%s: row emitted for a cell that never resolved its instance", r.ID())
		return nil
	}
	if len(q) == 1 {
		delete(c.started, key)
	} else {
		c.started[key] = q[1:]
	}
	c.st.cells++
	c.st.lat = append(c.st.lat, ms(t1.Sub(q[0])))
	c.st.rounds += int64(r.Rounds)
	c.st.messages += int64(r.Messages)
	c.st.wireBytes += int64(r.Bytes)
	c.st.violations += len(r.Violations)
	c.st.emit += t1.Sub(t0)
	c.mu.Unlock()
	if c.traced {
		c.spans.add("cell.emit", key, t0, t1.Sub(t0))
	}
	c.check.row(r, key)
	return nil
}

// countingWriter counts the bytes passed through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// batchRun is one run of a batch workload.
type batchRun struct {
	name  string
	spec  batchSpec
	dir   string
	check *checker

	// Set on traced runs: the benchmark's spans, the program's tracer and
	// its sweep telemetry, shared by every traced pass.
	spans   *spanLog
	prog    *cappedBuffer
	tracer  *obs.Tracer
	metrics *sweep.Metrics
}

// pass runs one sweep of reps repetitions on seed, writing its JSONL to a
// scratch file and hashing it as it goes.
func (b *batchRun) pass(ctx context.Context, seed int64, reps int, traced bool) (passStats, error) {
	f, err := os.Create(filepath.Join(b.dir, b.name+".jsonl"))
	if err != nil {
		return passStats{}, err
	}
	defer f.Close()
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(f, h)}
	bw := bufio.NewWriter(cw)
	rec := &cellRecorder{
		inner:   sweep.RegistryProvider{},
		sink:    sweep.NewJSONLSink(bw),
		check:   b.check,
		traced:  traced,
		started: map[string][]time.Time{},
	}
	cfg := b.spec.config(seed, reps)
	cfg.Provider = rec
	if traced {
		rec.spans = b.spans
		cfg.Metrics = b.metrics
		cfg.Tracer = b.tracer
	}
	t0 := time.Now()
	ss, err := sweep.Stream(ctx, cfg, rec)
	rec.st.wall = time.Since(t0)
	if err != nil {
		return passStats{}, err
	}
	if err := bw.Flush(); err != nil {
		return passStats{}, err
	}
	if err := f.Close(); err != nil {
		return passStats{}, err
	}
	rec.st.digest = hex.EncodeToString(h.Sum(nil))
	rec.st.rowBytes = cw.n
	rec.st.reorderPeak = ss.PeakBuffered
	return rec.st, nil
}

// runBatch sets the workload up setupRepeats times, then runs passes until
// o.Seconds have passed. A traced run alternates untraced and traced
// passes: the traced ones give the layer numbers, the pair gives the
// tracing overhead.
func runBatch(ctx context.Context, w Workload, o Options, rep *Report, chk *checker) error {
	b := &batchRun{name: w.Name, spec: *w.batch, dir: filepath.Join(o.Dir, "tmp"), check: chk}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	if o.Trace {
		b.spans = &spanLog{}
		b.prog = &cappedBuffer{}
		b.tracer = obs.NewTracer(b.prog)
		b.metrics = sweep.NewMetrics(obs.NewRegistry())
	}

	// Set-up is a warm-up pass through the same sink and checks as the
	// measured ones, so lazy set-up and cache fills happen before timing.
	// Each repetition draws its own instances, so the median is not one
	// instance's luck.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := b.pass(ctx, gen.SubSeed(o.Seed, "mmbench-setup", w.Name, strconv.Itoa(i)), b.spec.reps, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var traced passStats
	var windows, plainWs, tracedWs []window
	cells := 0
	u0 := readUsage(o.Trace)
	start := time.Now()
	for p := 0; ; p++ {
		tr := o.Trace && p%2 == 1
		before := readUsage(false)
		st, err := b.pass(ctx, passSeed(o.Seed, w.Name, p), b.spec.reps, tr)
		if err != nil {
			return err
		}
		after := readUsage(false)
		if p == 0 {
			rep.Digest = st.digest
		}
		win := newWindow(st.cells, st.wall, before, after)
		win.lat = st.lat
		windows = append(windows, win)
		cells += st.cells
		if tr {
			tracedWs = append(tracedWs, win)
			mergeTraced(&traced, st)
		} else {
			plainWs = append(plainWs, win)
		}
		if time.Since(start).Seconds() >= o.Seconds && (!o.Trace || p >= 1) {
			break
		}
	}
	u1 := readUsage(o.Trace)
	b.check.verifySamples(sweep.RegistryProvider{})

	rep.Result.Attempted = int64(cells)
	rep.Samples["passes"] = len(windows)
	rep.Samples["cells"] = cells
	rep.PeakRSSMB = float64(u1.maxRSSKB) / 1024
	rep.noteSteal(u0, u1)
	m := rep.metrics
	if !o.Trace {
		ops, cpu, p50, p90, rss := windowMetrics(windows)
		m.set("setup_s", median(setups))
		m.set("ops_per_s", ops)
		m.set("latency_p50_ms", p50)
		m.set("latency_p90_ms", p90)
		m.set("cpu_ms_per_op", cpu)
		m.set("rss_mb", rss)
		return nil
	}

	buildS := sum(traced.build) / 1000
	runS := b.metrics.Run.Sum()
	emitS := traced.emit.Seconds()
	capacity := traced.wall.Seconds() * float64(b.spec.cellWorkers)
	m.set("gen.build_s.sum", buildS)
	m.set("gen.build_ms.p50", median(traced.build))
	m.set("gen.builds", float64(len(traced.build)))
	m.set("gen.edges_per_s", ratio(float64(traced.edges), buildS))
	m.set("runtime.run_s.sum", runS)
	m.set("runtime.run_ms.p50", b.metrics.Run.Quantile(0.5)*1000)
	m.set("runtime.rounds", float64(traced.rounds))
	m.set("runtime.messages", float64(traced.messages))
	m.set("runtime.wire_bytes", float64(traced.wireBytes))
	m.set("runtime.messages_per_s", ratio(float64(traced.messages), runS))
	m.set("sweep.emit_s.sum", emitS)
	m.set("sweep.row_bytes", ratio(float64(traced.rowBytes), float64(traced.cells)))
	m.set("sweep.busy_frac", ratio(buildS+runS+emitS, capacity))
	m.set("sweep.reorder_peak", float64(traced.reorderPeak))
	m.set("sweep.violations", float64(traced.violations))
	for _, name := range []string{"serve.handler_ms.p50", "serve.handler_ms.p99", "serve.resolve_ms.p50",
		"serve.cache_hit_ratio", "serve.cache_lookups", "serve.store_put_ms.p50", "serve.refused",
		"serve.run_s.sum", "client.latency_p99_ms", "client.lag_ms.p99", "client.token_wait_ms.p99",
		"client.transport_ms.p50"} {
		m.set(name, 0) // batch workloads never reach the serve layer
	}
	setGoMetrics(m, u0, u1, cells)
	unaccounted := 1 - ratio(buildS+runS+emitS, capacity)
	m.set("trace.unaccounted_frac", unaccounted)
	plainRate, _, _, _, _ := windowMetrics(plainWs)
	tracedRate, _, _, _, _ := windowMetrics(tracedWs)
	m.set("trace.overhead_frac", ratio(plainRate, tracedRate)-1)
	if unaccounted > 0.10 {
		rep.Findings = append(rep.Findings, "finding: "+strconv.FormatFloat(100*unaccounted, 'f', 1, 64)+
			"% of cell-worker time is outside build, run and emit (claiming cells, reorder-window waits, scheduling)")
	}
	return rep.writeTrace(filepath.Join(o.Dir, "trace"), b.spans, b.prog)
}

// mergeTraced adds a traced pass into the running totals.
func mergeTraced(t *passStats, st passStats) {
	t.cells += st.cells
	t.wall += st.wall
	t.build = append(t.build, st.build...)
	t.edges += st.edges
	t.emit += st.emit
	t.rowBytes += st.rowBytes
	t.rounds += st.rounds
	t.messages += st.messages
	t.wireBytes += st.wireBytes
	t.violations += st.violations
	t.reorderPeak = max(t.reorderPeak, st.reorderPeak)
}

// setGoMetrics reports the Go runtime's share: bytes allocated per op and
// the share of CPU time the collector took, between two snapshots.
func setGoMetrics(m *metricSet, u0, u1 usage, ops int) {
	m.set("go.alloc_mb_per_op", ratio(float64(u1.alloc-u0.alloc)/(1<<20), float64(ops)))
	m.set("go.gc_cpu_frac", ratio(u1.gcCPU-u0.gcCPU, u1.totalCPU-u0.totalCPU))
}

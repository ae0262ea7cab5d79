package sweep

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// defaultReorderWindow bounds how many completed cells the stream driver
// may hold ahead of the emission frontier when Config.ReorderWindow is 0:
// twice the cell-worker count (at least 4), enough that workers rarely
// stall on a straggler without ever buffering more than a handful of rows.
func defaultReorderWindow(cellWorkers int) int {
	if cellWorkers <= 0 {
		cellWorkers = goruntime.GOMAXPROCS(0)
	}
	if w := 2 * cellWorkers; w > 4 {
		return w
	}
	return 4
}

// StreamStats summarises one streaming run.
type StreamStats struct {
	// Emitted counts the rows delivered to the sink this run.
	Emitted int
	// SkippedResume counts cells skipped because their rows were already
	// on disk (Config.Done) — not built, not run, not emitted.
	SkippedResume int
	// PeakBuffered is the largest number of completed results the reorder
	// window held at once. It is bounded by the window size, NEVER by the
	// cell count — the memory-ceiling guarantee the streaming tests
	// assert.
	PeakBuffered int
}

// Stream executes the sweep, delivering every cell's Result to the sink
// strictly in cell order as cells complete. Cells fan out across
// Config.CellWorkers goroutines; a small reorder window keyed by cell
// index (Config.ReorderWindow) restores deterministic order — a worker may
// not start cell i until the emission frontier is within the window, so
// driver-side memory is bounded by the window size regardless of how many
// cells the grid expands to. The driver holds no reference to a row once
// its Emit returns, so a row outlives its emission only if the sink keeps
// it.
//
// The first Config.Done cells of the run's range are skipped entirely:
// because emission is in-order, an interrupted streaming run always leaves
// a clean prefix of rows, and re-running with Done set to its row count
// (Resume verifies the prefix and sets it) appends exactly the missing
// suffix — the resumed file is byte-identical to an uninterrupted run
// (pinned by test). Done past the end of the range is refused.
//
// On the first cell failure (instance build or execution error, in cell
// order) or sink error the stream aborts fail-fast: rows before the
// failing cell are already emitted and flushed, the error is returned, and
// no later row is delivered. Context cancellation aborts the same way
// between cells with ctx.Err(). Contract violations are NOT failures —
// they are data in the rows.
func Stream(ctx context.Context, cfg Config, sink Sink) (StreamStats, error) {
	cells, err := runCells(cfg)
	if err != nil {
		return StreamStats{}, err
	}
	if cfg.Done < 0 || cfg.Done > len(cells) {
		return StreamStats{}, fmt.Errorf("sweep: Done = %d is outside the run's %d cells", cfg.Done, len(cells))
	}
	jobs := cells[cfg.Done:]
	stats := StreamStats{SkippedResume: cfg.Done}
	cfg.Metrics.recordPlan(len(jobs), stats.SkippedResume)
	if len(jobs) == 0 {
		return stats, ctx.Err()
	}

	workers := cfg.CellWorkers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	window := cfg.ReorderWindow
	if window <= 0 {
		window = defaultReorderWindow(workers)
	}

	o := &orderer{sink: sink, window: window, buf: map[int]*Result{}, errAt: map[int]error{},
		metrics: cfg.Metrics, tracer: cfg.Tracer}
	o.cond = sync.NewCond(&o.mu)
	var wg sync.WaitGroup
	next := 0
	var nextMu sync.Mutex
	claim := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		i := next
		next++
		return i
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i >= len(jobs) {
					return
				}
				if !o.acquire(i) {
					return
				}
				if err := ctx.Err(); err != nil {
					o.fail(i, err)
					return
				}
				res, err := runCell(cfg, jobs[i])
				if err != nil {
					o.fail(i, err)
					return
				}
				o.deliver(i, &res)
			}
		}()
	}
	wg.Wait()
	stats.Emitted = o.emitted
	stats.PeakBuffered = o.peak
	return stats, o.err
}

// orderer is the reorder window: completed results land at their cell
// index and drain to the sink in index order; workers may run at most
// `window` cells ahead of the drain frontier.
type orderer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	sink    Sink
	window  int
	metrics *Metrics
	tracer  *obs.Tracer

	next     int // lowest index not yet drained
	buf      map[int]*Result
	errAt    map[int]error
	emitting bool // one goroutine holds the emit token; sink I/O runs unlocked
	aborted  bool
	err      error
	emitted  int
	peak     int
}

// acquire blocks until cell i may start (i is within the window of the
// drain frontier) and reports whether the stream is still live.
func (o *orderer) acquire(i int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for !o.aborted && i >= o.next+o.window {
		o.cond.Wait()
	}
	return !o.aborted
}

// deliver buffers cell i's result and drains everything now contiguous.
func (o *orderer) deliver(i int, r *Result) {
	o.mu.Lock()
	if o.aborted {
		o.mu.Unlock()
		return
	}
	o.buf[i] = r
	if len(o.buf) > o.peak {
		o.peak = len(o.buf)
	}
	o.metrics.recordBuffered(len(o.buf), o.peak)
	o.mu.Unlock()
	o.drain()
}

// fail records cell i's error; the drain surfaces the in-order first.
func (o *orderer) fail(i int, err error) {
	o.mu.Lock()
	if o.aborted {
		o.mu.Unlock()
		return
	}
	o.errAt[i] = err
	o.mu.Unlock()
	o.drain()
}

// drain advances the frontier: contiguous results emit in index order, the
// first gap stops the pass, the first error position aborts the stream.
// Sink I/O runs OUTSIDE the mutex under a single emit token, so a slow
// flush never blocks workers delivering (or acquiring) other cells; rows
// buffered while the token holder is writing are picked up by its next
// loop iteration, preserving the single-emitter in-order guarantee.
func (o *orderer) drain() {
	o.mu.Lock()
	if o.emitting {
		o.mu.Unlock()
		return // the token holder will reach our row
	}
	o.emitting = true
	for !o.aborted {
		if err, ok := o.errAt[o.next]; ok {
			o.err = err
			o.aborted = true
			break
		}
		r, ok := o.buf[o.next]
		if !ok {
			break
		}
		delete(o.buf, o.next)
		buffered := len(o.buf)
		o.mu.Unlock()
		var sp obs.Span
		if o.tracer != nil {
			sp = o.tracer.Start("emit", "cell", r.ID())
		}
		t0 := time.Now()
		emitErr := o.sink.Emit(r)
		o.metrics.recordEmit(r, time.Since(t0))
		o.metrics.recordBuffered(buffered, 0)
		if o.tracer != nil {
			sp.End()
		}
		o.mu.Lock()
		if emitErr != nil {
			o.err = emitErr
			o.aborted = true
			break
		}
		o.emitted++
		o.next++
		o.cond.Broadcast() // the window moved: blocked acquirers may start
	}
	o.emitting = false
	o.mu.Unlock()
	o.cond.Broadcast() // wake acquirers on abort; harmless otherwise
}

package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// Sink consumes one Result per completed cell. Stream delivers results
// strictly in cell order, one Emit at a time (sinks need no locking), and
// recycles the Result's PerRound buffer as soon as Emit returns — a sink
// that retains anything beyond the call must copy it. Implementations
// compose: a typical CLI run stacks a JSONL writer, an aggregate
// accumulator and a violations collector behind one MultiSink, each seeing
// every row exactly once while the driver itself holds only the reorder
// window.
type Sink interface {
	Emit(r *Result) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(r *Result) error

// Emit implements Sink.
func (f SinkFunc) Emit(r *Result) error { return f(r) }

// MultiSink fans every result out to each sink in order, stopping at the
// first error.
func MultiSink(sinks ...Sink) Sink {
	return SinkFunc(func(r *Result) error {
		for _, s := range sinks {
			if err := s.Emit(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// flusher is the optional per-row flush hook of a JSONL destination
// (bufio.Writer implements it).
type flusher interface{ Flush() error }

// Syncer is the durability hook of a file-backed JSONL destination:
// os.File implements it as fsync. Flushing hands rows to the kernel —
// enough for a killed process to leave them on disk — but only a sync
// survives power-loss-style truncation of the page cache.
type Syncer interface{ Sync() error }

// JSONLSink streams results as JSON lines: each Emit encodes one row and
// pushes it all the way out — if the writer has a Flush method (a
// bufio.Writer over a file) it is flushed after every row, so a killed
// sweep leaves every completed cell on disk and -resume can pick up from
// the exact row the process died at.
//
// Per-row flushing covers process death; it does NOT cover machine death.
// A destination registered with WithSync additionally reaches stable
// storage on every Sync call — shard workers sync before reporting a cell
// range complete, so a supervisor restarted after a crash that also took
// the page cache never trusts rows that were only ever in memory.
type JSONLSink struct {
	enc  *json.Encoder
	fl   flusher
	sync Syncer
}

// NewJSONLSink wraps w in a streaming row writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{enc: json.NewEncoder(w)}
	if f, ok := w.(flusher); ok {
		s.fl = f
	}
	return s
}

// WithSync registers the destination's durability hook (the os.File under
// the bufio.Writer) and returns the sink for chaining. Sync pushes through
// it; Emit never does — fsync per row would serialise the sweep on the
// disk, and the resume machinery only needs durability at completion
// boundaries.
func (s *JSONLSink) WithSync(f Syncer) *JSONLSink {
	s.sync = f
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(r *Result) error {
	if err := s.enc.Encode(r); err != nil {
		return err
	}
	if s.fl != nil {
		return s.fl.Flush()
	}
	return nil
}

// Sync flushes any buffered rows and, when a Syncer is registered, fsyncs
// them to stable storage. Callers invoke it before reporting a shard or
// cell range complete; without a registered Syncer it degrades to a flush.
func (s *JSONLSink) Sync() error {
	if s.fl != nil {
		if err := s.fl.Flush(); err != nil {
			return err
		}
	}
	if s.sync != nil {
		return s.sync.Sync()
	}
	return nil
}

// AggRow is one aggregated (scenario, algorithm) row.
type AggRow struct {
	Scenario   string
	Algo       string
	Cells      int // executed cells
	Skipped    int // skipped cells (inapplicable algorithm)
	MaxRounds  int // worst round count across the cells
	Messages   int // total messages across the cells
	Bytes      int // total traffic bytes across the cells
	Matched    int // total matched edges across the cells
	Violations int // total contract breaches across the cells
}

// add folds one result into the row.
func (row *AggRow) add(res *Result) {
	if res.Skip != "" {
		row.Skipped++
		return
	}
	row.Cells++
	if res.Rounds > row.MaxRounds {
		row.MaxRounds = res.Rounds
	}
	row.Messages += res.Messages
	row.Bytes += res.Bytes
	row.Matched += res.Matched
	row.Violations += len(res.Violations)
}

// AggregateSink folds rows into per-(scenario, algorithm) aggregates as
// they stream past, holding one AggRow per pair rather than one Result per
// cell.
type AggregateSink struct {
	index map[[2]string]int
	rows  []AggRow
}

// Emit implements Sink.
func (a *AggregateSink) Emit(r *Result) error {
	if a.index == nil {
		a.index = map[[2]string]int{}
	}
	key := [2]string{r.Scenario, r.Algo}
	j, ok := a.index[key]
	if !ok {
		j = len(a.rows)
		a.index[key] = j
		a.rows = append(a.rows, AggRow{Scenario: r.Scenario, Algo: r.Algo})
	}
	a.rows[j].add(r)
	return nil
}

// Rows returns the aggregate in first-appearance order.
func (a *AggregateSink) Rows() []AggRow { return a.rows }

// RenderTable writes the aggregate as an aligned text table.
func (a *AggregateSink) RenderTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\talgo\tcells\tskipped\tmax rounds\tmessages\tbytes\tmatched\tviolations")
	for _, row := range a.rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Scenario, row.Algo, row.Cells, row.Skipped, row.MaxRounds,
			row.Messages, row.Bytes, row.Matched, row.Violations)
	}
	return tw.Flush()
}

// ViolationsSink collects every contract breach streaming past as one
// formatted line per violation, prefixed with the cell identity. Empty
// means every row seen conformed.
type ViolationsSink struct {
	Lines []string
}

// Emit implements Sink.
func (s *ViolationsSink) Emit(r *Result) error {
	for _, v := range r.Violations {
		s.Lines = append(s.Lines, fmt.Sprintf("%s: %s", r.ID(), v))
	}
	return nil
}

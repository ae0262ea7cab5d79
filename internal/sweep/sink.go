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
// (Output and bufio.Writer implement it).
type flusher interface{ Flush() error }

// JSONLSink streams results as JSON lines: each Emit encodes one row and
// pushes it all the way out — if the writer has a Flush method (an Output,
// or a bufio.Writer over a file) it is flushed after every row, so a
// killed sweep leaves every completed cell on disk and -resume can pick up
// from the exact row the process died at. Per-row flushing covers process
// death; Output.Close adds the fsync that covers machine death.
type JSONLSink struct {
	enc *json.Encoder
	fl  flusher
}

// NewJSONLSink wraps w in a streaming row writer.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{enc: json.NewEncoder(w)}
	if f, ok := w.(flusher); ok {
		s.fl = f
	}
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

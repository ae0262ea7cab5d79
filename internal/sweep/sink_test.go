package sweep

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// flushSpy counts the flushes a JSONLSink drives through its destination.
type flushSpy struct {
	bytes.Buffer
	flushes int
}

func (s *flushSpy) Flush() error { s.flushes++; return nil }

// fileSpy stands in for an Output's file, logging writes, fsyncs and the
// close in the order they happen.
type fileSpy struct {
	bytes.Buffer
	events []string
}

func (s *fileSpy) Write(p []byte) (int, error) {
	s.events = append(s.events, "write")
	return s.Buffer.Write(p)
}
func (s *fileSpy) Sync() error  { s.events = append(s.events, "sync"); return nil }
func (s *fileSpy) Close() error { s.events = append(s.events, "close"); return nil }

// TestJSONLSinkSyncBoundary: through an Output, Emit flushes each row to
// the file but NEVER fsyncs — durability is paid once, not per row — and
// Close flushes what is buffered before it fsyncs, then closes.
func TestJSONLSinkSyncBoundary(t *testing.T) {
	spy := &fileSpy{}
	o := &Output{f: spy, bw: bufio.NewWriter(spy)}
	sink := NewJSONLSink(o)
	rows := collect(t, Config{Grids: []string{"path:n=8..16,k=2"}, Seed: 1})
	for i := range rows {
		if err := sink.Emit(&rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]string, len(rows))
	for i := range want {
		want[i] = "write"
	}
	if !reflect.DeepEqual(spy.events, want) {
		t.Fatalf("%d rows drove %v — Emit must flush each row and never fsync", len(rows), spy.events)
	}
	if n := bytes.Count(spy.Bytes(), []byte("\n")); n != len(rows) {
		t.Fatalf("the file holds %d rows, want %d", n, len(rows))
	}
	if _, err := o.Write([]byte("tail\n")); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := spy.events[len(rows):]; !reflect.DeepEqual(got, []string{"write", "sync", "close"}) {
		t.Errorf("Close drove %v, want the buffered write, then the fsync, then the close", got)
	}
}

// TestOutputFlushClose: on a real file, Flush hands buffered bytes to the
// file, and Close writes whatever is still buffered.
func TestOutputFlushClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	o, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	read := func() string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if _, err := o.Write([]byte("row\n")); err != nil {
		t.Fatal(err)
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "row\n" {
		t.Fatalf("after Flush the file holds %q", got)
	}
	if _, err := o.Write([]byte("tail\n")); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "row\ntail\n" {
		t.Fatalf("after Close the file holds %q", got)
	}
}

// TestResumeAfterMidRowTruncation: the power-loss scenario the fsync
// boundary exists for. A closed sweep file truncated mid-row (bytes past
// the last durable row vanish with the page cache) is resumed — complete
// rows kept, the torn row cut — to the uninterrupted file byte for byte.
func TestResumeAfterMidRowTruncation(t *testing.T) {
	cfg := Config{
		Grids: []string{"path:n=8..64,k=2"},
		Algos: []string{"greedy", "proposal"},
		Seed:  5,
	}
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	o, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Stream(context.Background(), cfg, NewJSONLSink(o)); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Lose the tail mid-row: cut the file 17 bytes into its final row.
	lines := bytes.SplitAfter(want, []byte("\n"))
	keep := len(want) - len(lines[len(lines)-2]) + 17
	if err := os.Truncate(path, int64(keep)); err != nil {
		t.Fatal(err)
	}
	got, stats, err := resumeFile(t, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedResume != len(lines)-2 {
		t.Fatalf("resumed over %d rows of the truncated file, want %d", stats.SkippedResume, len(lines)-2)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed file differs from the uninterrupted run")
	}
}

// TestMultiSinkErrorPropagation: a sink error mid-stream aborts the sweep
// fail-fast. Sinks earlier in the MultiSink see the failing row, sinks
// after the failure do not, and the JSONL destination is left a clean
// flushed prefix — exactly the rows before the failure, each complete and
// parseable — with the violations sink consistent over the same prefix.
func TestMultiSinkErrorPropagation(t *testing.T) {
	cfg := Config{
		Grids:       []string{"path:n=8..64,k=2"},
		Algos:       []string{"greedy", "proposal"},
		Seed:        1,
		CellWorkers: 2,
		CheckBounds: true,
	}
	boom := errors.New("downstream sink failure")
	const failAt = 3 // rows 0,1,2 succeed; row 3 fails

	var jsonlBuf flushSpy
	jsonl := NewJSONLSink(&jsonlBuf)
	var vio ViolationsSink
	rows := 0
	var after int
	failing := SinkFunc(func(*Result) error {
		if rows == failAt {
			return boom
		}
		rows++
		return nil
	})
	tail := SinkFunc(func(*Result) error { after++; return nil })

	_, err := Stream(context.Background(), cfg, MultiSink(jsonl, &vio, failing, tail))
	if !errors.Is(err, boom) {
		t.Fatalf("sink error not propagated verbatim: %v", err)
	}
	if after != failAt {
		t.Errorf("sink after the failing one saw %d rows, want %d — MultiSink must stop at the first error", after, failAt)
	}

	// The JSONL prefix: the failing row reached the sinks BEFORE the
	// failing one, so the destination holds failAt+1 complete flushed rows
	// and nothing after.
	state, err := scanRows(bytes.NewReader(jsonlBuf.Buffer.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != failAt+1 {
		t.Errorf("JSONL prefix holds %d rows, want %d", state.Rows, failAt+1)
	}
	if state.ValidSize != int64(jsonlBuf.Buffer.Len()) {
		t.Errorf("JSONL prefix is not clean: %d of %d bytes are complete rows", state.ValidSize, jsonlBuf.Buffer.Len())
	}
	if jsonlBuf.flushes < failAt+1 {
		t.Errorf("only %d flushes for %d emitted rows — the prefix is not guaranteed on disk", jsonlBuf.flushes, failAt+1)
	}

	// The violations sink covers exactly the same prefix: every line's cell
	// must be one of the emitted rows' IDs.
	emitted := map[string]bool{}
	if _, err := DecodeRows(bytes.NewReader(jsonlBuf.Buffer.Bytes()), SinkFunc(func(r *Result) error {
		emitted[r.ID()] = true
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for _, line := range vio.Lines {
		id, _, _ := strings.Cut(line, ": ")
		if !emitted[id] {
			t.Errorf("violation line %q is not from the emitted prefix", line)
		}
	}
}

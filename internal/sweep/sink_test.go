package sweep

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// syncSpy records the flush/sync traffic a JSONLSink drives through its
// destination.
type syncSpy struct {
	bytes.Buffer
	flushes, syncs int
}

func (s *syncSpy) Flush() error { s.flushes++; return nil }
func (s *syncSpy) Sync() error  { s.syncs++; return nil }

// TestJSONLSinkSyncBoundary: Emit flushes every row but NEVER fsyncs —
// durability is paid at completion boundaries, not per row — and Sync
// flushes then fsyncs exactly once. Without a registered Syncer, Sync
// degrades to a flush instead of failing.
func TestJSONLSinkSyncBoundary(t *testing.T) {
	spy := &syncSpy{}
	sink := NewJSONLSink(spy).WithSync(spy)
	rows := collect(t, Config{Grids: []string{"path:n=8..16,k=2"}, Seed: 1})
	for i := range rows {
		if err := sink.Emit(&rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if spy.flushes != len(rows) {
		t.Errorf("%d flushes for %d rows — Emit must flush each row", spy.flushes, len(rows))
	}
	if spy.syncs != 0 {
		t.Errorf("Emit fsynced %d times — per-row fsync would serialise the sweep on the disk", spy.syncs)
	}
	if err := sink.Sync(); err != nil {
		t.Fatal(err)
	}
	if spy.syncs != 1 {
		t.Errorf("Sync fsynced %d times, want 1", spy.syncs)
	}
	if spy.flushes != len(rows)+1 {
		t.Errorf("Sync did not flush before fsyncing (%d flushes)", spy.flushes)
	}

	// No Syncer registered: Sync still flushes, still succeeds.
	bare := &syncSpy{}
	s2 := NewJSONLSink(bare)
	if err := s2.Sync(); err != nil {
		t.Fatalf("Sync without a Syncer failed: %v", err)
	}
	if bare.flushes != 1 || bare.syncs != 0 {
		t.Errorf("degraded Sync: %d flushes, %d syncs, want 1, 0", bare.flushes, bare.syncs)
	}
}

// TestResumeAfterMidRowTruncation: the power-loss scenario the fsync
// boundary exists for. A synced sweep file truncated mid-row (bytes past
// the last durable row vanish with the page cache) is recovered by
// ReadCompleted — complete rows kept, the torn row cut — and a resumed run
// over it reproduces the uninterrupted file byte for byte.
func TestResumeAfterMidRowTruncation(t *testing.T) {
	cfg := Config{
		Grids: []string{"path:n=8..64,k=2"},
		Algos: []string{"greedy", "proposal"},
		Seed:  5,
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	sink := NewJSONLSink(bw).WithSync(f)
	if _, err := Stream(context.Background(), cfg, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
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

	tf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	state, err := ReadCompleted(tf)
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != len(lines)-2 {
		t.Fatalf("recovered %d rows from the truncated file, want %d", state.Rows, len(lines)-2)
	}
	if err := tf.Truncate(state.ValidSize); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Seek(state.ValidSize, 0); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	state.Configure(&rcfg)
	rbw := bufio.NewWriter(tf)
	rsink := NewJSONLSink(rbw).WithSync(tf)
	if _, err := Stream(context.Background(), rcfg, rsink); err != nil {
		t.Fatal(err)
	}
	if err := rsink.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
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

	var jsonlBuf syncSpy
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
	state, err := ReadCompleted(bytes.NewReader(jsonlBuf.Buffer.Bytes()))
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

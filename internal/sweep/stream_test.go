package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// streamJSONL runs Stream with a JSONL sink into a buffer.
func streamJSONL(t *testing.T, ctx context.Context, cfg Config, buf *bytes.Buffer) (StreamStats, error) {
	t.Helper()
	return Stream(ctx, cfg, NewJSONLSink(buf))
}

// TestStreamMatchesRun: the streaming pipeline and the buffered Run emit
// byte-identical JSONL — Run IS a stream into a collecting sink, and the
// reorder window must not change row order or content.
func TestStreamMatchesRun(t *testing.T) {
	cfg := tinyConfig()
	want := runJSONL(t, cfg)
	for _, window := range []int{0, 1, 3} {
		cfg.ReorderWindow = window
		var buf bytes.Buffer
		stats, err := streamJSONL(t, context.Background(), cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("window %d: streamed JSONL differs from Run", window)
		}
		rows := bytes.Count(want, []byte("\n"))
		if stats.Emitted != rows {
			t.Errorf("window %d: Emitted = %d, want %d", window, stats.Emitted, rows)
		}
	}
}

// TestStreamWindowBoundsBuffering: the driver never holds more completed
// results than the reorder window, no matter how many cells the grid has —
// the bounded-memory core of the streaming refactor. Peak buffering must
// depend on the window, not on the cell count.
func TestStreamWindowBoundsBuffering(t *testing.T) {
	for _, reps := range []int{4, 40} {
		cfg := Config{
			Grids:         []string{"path:n=32,k=2"},
			Reps:          reps,
			Seed:          1,
			CellWorkers:   4,
			ReorderWindow: 3,
		}
		var buf bytes.Buffer
		stats, err := streamJSONL(t, context.Background(), cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Emitted != reps {
			t.Fatalf("reps=%d: emitted %d rows", reps, stats.Emitted)
		}
		if stats.PeakBuffered > 3 {
			t.Errorf("reps=%d: PeakBuffered = %d exceeds window 3 — driver memory scales with cell count", reps, stats.PeakBuffered)
		}
	}
}

// TestStreamFailFastKeepsPrefix: a mid-sweep cell failure aborts the run
// with the error, after emitting every row before the failing cell — the
// partial output is a clean resumable prefix.
func TestStreamFailFastKeepsPrefix(t *testing.T) {
	good := Config{Grids: []string{"path:n=8..16,k=2"}, Seed: 1, CellWorkers: 1}
	want := runJSONL(t, good)

	bad := good
	// regular:n=2,k=3 cannot place three disjoint perfect matchings on two
	// nodes: the build fails after the two path cells.
	bad.Grids = append(bad.Grids, "regular:n=2,k=3")
	var buf bytes.Buffer
	stats, err := streamJSONL(t, context.Background(), bad, &buf)
	if err == nil {
		t.Fatal("impossible cell did not fail the sweep")
	}
	if !strings.Contains(err.Error(), "regular") {
		t.Errorf("error does not name the failing cell: %v", err)
	}
	if stats.Emitted != 2 || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("partial output is not the clean 2-row prefix (emitted %d)", stats.Emitted)
	}

	// Run must surface the same failure.
	if _, err := Run(bad); err == nil {
		t.Error("Run swallowed the cell failure")
	}
}

// TestStreamSinkErrorAborts: a sink write failure stops the sweep.
func TestStreamSinkErrorAborts(t *testing.T) {
	cfg := Config{Grids: []string{"path:n=8..64,k=2"}, Seed: 1}
	boom := SinkFunc(func(*Result) error { return context.DeadlineExceeded })
	if _, err := Stream(context.Background(), cfg, boom); err != context.DeadlineExceeded {
		t.Fatalf("sink error not surfaced: %v", err)
	}
}

// TestStreamResumeByteIdentical is the resume acceptance test: a sweep
// killed halfway (a cancelled context, the library-level stand-in for
// SIGKILL between rows) leaves a clean prefix; re-running with -resume
// semantics — ReadCompleted over the partial output, completed cells
// skipped, new rows appended — produces a final file byte-identical to an
// uninterrupted run.
func TestStreamResumeByteIdentical(t *testing.T) {
	cfg := Config{
		Grids:       []string{"path:n=8..64,k=2|3", "matching-union:n=64,k=2"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        2,
		Seed:        3,
		CheckBounds: true,
	}
	full := runJSONL(t, cfg)
	total := bytes.Count(full, []byte("\n"))

	// Kill halfway: cancel the context from inside the sink after five
	// rows. Cells already past their ctx check still drain in order, so
	// the output stays a prefix; later cells die on the cancelled context.
	killed := cfg
	killed.CellWorkers = 2
	killed.ReorderWindow = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial bytes.Buffer
	rows := 0
	jsonl := NewJSONLSink(&partial)
	stats, err := Stream(ctx, killed, SinkFunc(func(r *Result) error {
		if err := jsonl.Emit(r); err != nil {
			return err
		}
		if rows++; rows == 5 {
			cancel()
		}
		return nil
	}))
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if stats.Emitted == 0 || stats.Emitted >= total {
		t.Fatalf("cancellation emitted %d of %d rows; want a strict prefix", stats.Emitted, total)
	}
	if !bytes.Equal(partial.Bytes(), full[:len(partial.Bytes())]) {
		t.Fatal("interrupted output is not a prefix of the clean run")
	}

	// Resume: reconstruct the completed set, skip those cells, append.
	state, err := ReadCompleted(bytes.NewReader(partial.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != stats.Emitted || int64(partial.Len()) != state.ValidSize {
		t.Fatalf("ReadCompleted saw %d rows / %d bytes, emitted %d / %d", state.Rows, state.ValidSize, stats.Emitted, partial.Len())
	}
	resumed := cfg
	resumed.Completed = state.Completed
	rstats, err := streamJSONL(t, context.Background(), resumed, &partial)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.SkippedResume != state.Rows {
		t.Errorf("resume skipped %d cells, want %d", rstats.SkippedResume, state.Rows)
	}
	if !bytes.Equal(partial.Bytes(), full) {
		t.Fatal("resumed output differs from the uninterrupted run")
	}

	// Resuming a complete file is a no-op that emits nothing.
	done, err := ReadCompleted(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	resumed.Completed = done.Completed
	var empty bytes.Buffer
	nstats, err := streamJSONL(t, context.Background(), resumed, &empty)
	if err != nil || nstats.Emitted != 0 || nstats.SkippedResume != total || empty.Len() != 0 {
		t.Fatalf("fully-resumed sweep not a no-op: stats=%+v err=%v", nstats, err)
	}
}

// TestStreamResumeSeedMismatch: resuming under a different base seed must
// refuse before emitting anything — the old prefix and the new suffix
// would otherwise describe different instance universes in one file.
func TestStreamResumeSeedMismatch(t *testing.T) {
	cfg := Config{Grids: []string{"path:n=8..32,k=2"}, Seed: 1}
	full := runJSONL(t, cfg)
	state, err := ReadCompleted(bytes.NewReader(full[:len(full)/2]))
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows == 0 {
		t.Fatal("no rows recovered from the prefix")
	}
	bad := cfg
	bad.Seed = 2
	bad.Completed = state.Completed
	bad.CompletedSeeds = state.Seeds
	var buf bytes.Buffer
	if _, err := streamJSONL(t, context.Background(), bad, &buf); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch not refused: err=%v", err)
	}
	if buf.Len() != 0 {
		t.Error("rows were emitted despite the refusal")
	}
	// The same state under the matching seed resumes cleanly.
	good := cfg
	good.Completed = state.Completed
	good.CompletedSeeds = state.Seeds
	var tail bytes.Buffer
	if _, err := streamJSONL(t, context.Background(), good, &tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(append([]byte(nil), full[:state.ValidSize]...), tail.Bytes()...), full) {
		t.Error("matching-seed resume did not complete the file")
	}
}

// TestStreamSinksCompose: the aggregate and violations sinks fed from a
// stream agree with the buffered Report over the same config.
func TestStreamSinksCompose(t *testing.T) {
	cfg := tinyConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var agg AggregateSink
	var vio ViolationsSink
	var buf bytes.Buffer
	if _, err := Stream(context.Background(), cfg, MultiSink(NewJSONLSink(&buf), &agg, &vio)); err != nil {
		t.Fatal(err)
	}
	wantRows := rep.Aggregate()
	gotRows := agg.Rows()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("aggregate rows %d != %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("aggregate row %d: %+v != %+v", i, gotRows[i], wantRows[i])
		}
	}
	if len(vio.Lines) != len(rep.Violations()) {
		t.Errorf("violations sink saw %d, report %d", len(vio.Lines), len(rep.Violations()))
	}
	var tbl1, tbl2 bytes.Buffer
	if err := agg.RenderTable(&tbl1); err != nil {
		t.Fatal(err)
	}
	if err := rep.RenderTable(&tbl2); err != nil {
		t.Fatal(err)
	}
	if tbl1.String() != tbl2.String() {
		t.Error("streamed aggregate table differs from buffered table")
	}
}

// TestStreamMillionNodeCell is the scale acceptance test: a
// regular:n=1048576 cell — a million-node, 4-regular, two-million-edge
// instance — builds, runs greedy, and streams
// its row with the driver buffering bounded by the reorder window even
// with dozens of other cells in the same sweep. Driver-side memory is
// PeakBuffered × row size — independent of both the cell count and the
// instance size (the instance lives only inside its cell's execution).
func TestStreamMillionNodeCell(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("million-node sweep cell is too slow for -short and race builds")
	}
	cfg := Config{
		Grids:         []string{"regular:n=1048576,k=4", "path:n=64,k=2"},
		Reps:          1,
		Seed:          1,
		CheckBounds:   true,
		CellWorkers:   2,
		ReorderWindow: 2,
	}
	var buf bytes.Buffer
	var agg AggregateSink
	stats, err := Stream(context.Background(), cfg, MultiSink(NewJSONLSink(&buf), &agg))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emitted != 2 {
		t.Fatalf("emitted %d rows, want 2", stats.Emitted)
	}
	if stats.PeakBuffered > 2 {
		t.Errorf("PeakBuffered = %d exceeds the window", stats.PeakBuffered)
	}
	out := buf.String()
	if !strings.Contains(out, `"n":1048576`) {
		t.Fatal("million-node row missing")
	}
	if strings.Contains(out, `"violations"`) {
		t.Errorf("million-node sweep violated a contract:\n%s", out)
	}
	for _, row := range agg.Rows() {
		if row.Violations != 0 {
			t.Errorf("aggregate records violations: %+v", row)
		}
	}
}

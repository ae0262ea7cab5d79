package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// streamJSONL runs Stream with a JSONL sink into a buffer.
func streamJSONL(t *testing.T, ctx context.Context, cfg Config, buf *bytes.Buffer) (StreamStats, error) {
	t.Helper()
	return Stream(ctx, cfg, NewJSONLSink(buf))
}

// TestStreamMatchesRun: rows streamed through JSONLSink one at a time are
// byte-identical to the same rows collected and encoded after the sweep
// ends — the reorder window must not change row order or content.
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
			t.Fatalf("window %d: streamed JSONL differs from the collected rows", window)
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
// semantics — ScanPlan verifying the partial output, Config.Done skipping
// its rows, new rows appended — produces a final file byte-identical to an
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

	// Resume: verify the prefix, skip its cells, append.
	plan, err := CellPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state, err := ScanPlan(bytes.NewReader(partial.Bytes()), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != stats.Emitted || int64(partial.Len()) != state.ValidSize {
		t.Fatalf("ScanPlan saw %d rows / %d bytes, emitted %d / %d", state.Rows, state.ValidSize, stats.Emitted, partial.Len())
	}
	resumed := cfg
	resumed.Done = state.Rows
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
	resumed.Done = total
	var empty bytes.Buffer
	nstats, err := streamJSONL(t, context.Background(), resumed, &empty)
	if err != nil || nstats.Emitted != 0 || nstats.SkippedResume != total || empty.Len() != 0 {
		t.Fatalf("fully-resumed sweep not a no-op: stats=%+v err=%v", nstats, err)
	}
	// Done past the end of the run is refused.
	resumed.Done = total + 1
	if _, err := streamJSONL(t, context.Background(), resumed, &empty); err == nil || empty.Len() != 0 {
		t.Fatalf("Done past the run's end not refused: err=%v", err)
	}
}

// TestStreamResumeSeedMismatch: resuming under a different base seed must
// be refused before anything is emitted — the old prefix and the new
// suffix would otherwise describe different instance universes in one
// file. ScanPlan refuses at the first row; under the matching seed the
// same prefix resumes to the full file.
func TestStreamResumeSeedMismatch(t *testing.T) {
	cfg := Config{Grids: []string{"path:n=8..32,k=2"}, Seed: 1}
	full := runJSONL(t, cfg)
	prefix := full[:len(full)/2]
	bad := cfg
	bad.Seed = 2
	badPlan, err := CellPlan(bad)
	if err != nil {
		t.Fatal(err)
	}
	var mm *MismatchError
	if _, err := ScanPlan(bytes.NewReader(prefix), badPlan, nil); !errors.As(err, &mm) || mm.Field != "seed" || mm.Offset != 0 {
		t.Fatalf("seed mismatch not refused at the first row: err=%v", err)
	}
	plan, err := CellPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state, err := ScanPlan(bytes.NewReader(prefix), plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows == 0 {
		t.Fatal("no rows recovered from the prefix")
	}
	good := cfg
	good.Done = state.Rows
	var tail bytes.Buffer
	if _, err := streamJSONL(t, context.Background(), good, &tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(append([]byte(nil), full[:state.ValidSize]...), tail.Bytes()...), full) {
		t.Error("matching-seed resume did not complete the file")
	}
}

// TestStreamSinksCompose: sinks stacked behind one MultiSink each see
// every row. The JSONL matches a separate run, and the aggregate and
// violations sinks agree with totals folded here from the collected rows.
func TestStreamSinksCompose(t *testing.T) {
	cfg := tinyConfig()
	var agg AggregateSink
	var vio ViolationsSink
	var rows collectSink
	var buf bytes.Buffer
	if _, err := Stream(context.Background(), cfg, MultiSink(NewJSONLSink(&buf), &agg, &vio, &rows)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), runJSONL(t, cfg)) {
		t.Error("JSONL behind a MultiSink differs from a lone run")
	}
	var wantRows []AggRow
	index := map[[2]string]int{}
	violations := 0
	for _, r := range rows.results {
		key := [2]string{r.Scenario, r.Algo}
		j, ok := index[key]
		if !ok {
			j = len(wantRows)
			index[key] = j
			wantRows = append(wantRows, AggRow{Scenario: r.Scenario, Algo: r.Algo})
		}
		w := &wantRows[j]
		violations += len(r.Violations)
		if r.Skip != "" {
			w.Skipped++
			continue
		}
		w.Cells++
		w.MaxRounds = max(w.MaxRounds, r.Rounds)
		w.Messages += r.Messages
		w.Bytes += r.Bytes
		w.Matched += r.Matched
		w.Violations += len(r.Violations)
	}
	gotRows := agg.Rows()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("aggregate rows %d != %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("aggregate row %d: %+v != %+v", i, gotRows[i], wantRows[i])
		}
	}
	if len(vio.Lines) != violations {
		t.Errorf("violations sink saw %d, rows carry %d", len(vio.Lines), violations)
	}
	var tbl bytes.Buffer
	if err := agg.RenderTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(tbl.String(), "\n"); got != len(wantRows)+1 {
		t.Errorf("aggregate table has %d lines, want a header and %d rows", got, len(wantRows))
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

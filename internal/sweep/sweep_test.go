package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden JSONL file")

func tinyConfig() Config {
	return Config{
		Grids:       []string{"path:n=8..16,k=2|3", "worstcase:k=4"},
		Algos:       []string{"greedy", "reduced"},
		Reps:        1,
		Seed:        1,
		CheckBounds: true,
	}
}

// collectSink keeps a copy of every row for tests that inspect a whole
// sweep after it ends. It copies PerRound because Stream recycles that
// buffer once Emit returns.
type collectSink struct {
	results []Result
}

func (s *collectSink) Emit(r *Result) error {
	res := *r
	if r.PerRound != nil {
		res.PerRound = append([][2]int(nil), r.PerRound...)
	}
	s.results = append(s.results, res)
	return nil
}

// collect runs the sweep to completion and returns its rows in cell order.
func collect(t *testing.T, cfg Config) []Result {
	t.Helper()
	var rows collectSink
	if _, err := Stream(context.Background(), cfg, &rows); err != nil {
		t.Fatal(err)
	}
	return rows.results
}

// runJSONL encodes the collected rows as JSON lines only after the sweep
// has ended: the reference that per-row streamed output is held to.
func runJSONL(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range collect(t, cfg) {
		if err := enc.Encode(&r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestDeterministicJSONL: the same Config produces byte-identical JSONL,
// across repeated runs and regardless of cell- or engine-level
// parallelism.
func TestDeterministicJSONL(t *testing.T) {
	cfg := Config{
		Grids:       []string{"matching-union:n=64..128,k=2|4", "tree:n=64"},
		Algos:       []string{"greedy", "proposal"},
		Reps:        2,
		Seed:        42,
		CheckBounds: true,
	}
	base := runJSONL(t, cfg)
	if !bytes.Equal(base, runJSONL(t, cfg)) {
		t.Error("two identical runs differ")
	}
	cfg.CellWorkers = 1
	if !bytes.Equal(base, runJSONL(t, cfg)) {
		t.Error("serial cell execution changed the output")
	}
	cfg.CellWorkers = 0
	cfg.EngineWorkers = 4
	if !bytes.Equal(base, runJSONL(t, cfg)) {
		t.Error("four engine workers changed the output")
	}
}

// TestGoldenJSONL pins a tiny all-integral grid byte for byte. Regenerate
// with: go test ./internal/sweep -run TestGoldenJSONL -update
func TestGoldenJSONL(t *testing.T) {
	got := runJSONL(t, tinyConfig())
	golden := filepath.Join("testdata", "tiny_grid.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSONL deviates from golden file (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestJSONLRowsParse: every emitted line is a standalone valid JSON object
// with the identifying fields populated.
func TestJSONLRowsParse(t *testing.T) {
	out := runJSONL(t, tinyConfig())
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 10 { // (4 path cells + 1 worstcase cell) × 2 algos
		t.Fatalf("%d JSONL rows, want 10", len(lines))
	}
	for _, line := range lines {
		var row Result
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("invalid JSON row %q: %v", line, err)
		}
		if row.Scenario == "" || row.Params == "" || row.Algo == "" {
			t.Errorf("row missing identity: %q", line)
		}
		if row.Skip == "" && (row.N == 0 || len(row.PerRound) != row.Rounds) {
			t.Errorf("row stats inconsistent: %q", line)
		}
	}
}

// TestAllFamiliesConform is the acceptance sweep: every registered family
// under every registered algorithm, bounds checked, zero violations. The
// inapplicable combinations (bipartite on unlabelled families) are skipped,
// not failed.
func TestAllFamiliesConform(t *testing.T) {
	var rows collectSink
	var vio ViolationsSink
	if _, err := Stream(context.Background(), Config{
		Grids:       DefaultGrids(),
		Algos:       AlgoNames(),
		Reps:        2,
		Seed:        7,
		CheckBounds: true,
	}, MultiSink(&rows, &vio)); err != nil {
		t.Fatal(err)
	}
	if len(vio.Lines) != 0 {
		t.Fatalf("communication contracts violated:\n%s", strings.Join(vio.Lines, "\n"))
	}
	families := map[string]bool{}
	ran, skipped := 0, 0
	for _, res := range rows.results {
		if res.Skip != "" {
			skipped++
			continue
		}
		ran++
		families[res.Scenario] = true
	}
	if len(families) != 9 {
		t.Errorf("sweep covered %d families, want all 9", len(families))
	}
	// bipartite applies only to double-cover: 8 families × 2 reps skipped.
	if skipped != 16 {
		t.Errorf("%d cells skipped, want 16", skipped)
	}
	if ran != 9*4*2-16 {
		t.Errorf("%d cells ran, want %d", ran, 9*4*2-16)
	}
}

func TestAggregate(t *testing.T) {
	var agg AggregateSink
	if _, err := Stream(context.Background(), Config{
		Grids:       []string{"path:n=8..16"},
		Algos:       []string{"greedy", "bipartite"},
		Seed:        1,
		CheckBounds: true,
	}, &agg); err != nil {
		t.Fatal(err)
	}
	rows := agg.Rows()
	if len(rows) != 2 {
		t.Fatalf("%d aggregate rows, want 2", len(rows))
	}
	if rows[0].Algo != "greedy" || rows[0].Cells != 2 || rows[0].Skipped != 0 {
		t.Errorf("greedy row wrong: %+v", rows[0])
	}
	if rows[1].Algo != "bipartite" || rows[1].Cells != 0 || rows[1].Skipped != 2 {
		t.Errorf("bipartite row wrong: %+v", rows[1])
	}
	var tbl bytes.Buffer
	if err := agg.RenderTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "path") || !strings.Contains(tbl.String(), "violations") {
		t.Errorf("table missing content:\n%s", tbl.String())
	}
}

func TestExpandErrors(t *testing.T) {
	if _, err := Expand(Config{Grids: []string{"nope:n=2"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := Expand(Config{Algos: []string{"quantum"}, Grids: []string{"path:n=8"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Expand(Config{}); err == nil {
		t.Error("empty sweep accepted")
	}
	n, err := Expand(Config{Grids: []string{"path:n=8..64,k=2|3"}, Algos: []string{"greedy", "proposal"}, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*2*2*3 {
		t.Errorf("Expand = %d cells, want 48", n)
	}
}

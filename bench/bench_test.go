package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests hold the code
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []BoundDef `json:"end_to_end"`
	PerLayer []BoundDef `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// lists to the ones the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	f := loadBenchmark(t)
	ws := Workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, f.Workloads[i].Name, w.Name)
		}
	}
	for _, c := range []struct {
		file []BoundDef
		code []MetricDef
	}{{f.EndToEnd, EndToEnd}, {f.PerLayer, PerLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i, d := range c.code {
			if c.file[i].Name != d.Name || c.file[i].Unit != d.Unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, c.file[i].Name, c.file[i].Unit, d.Name, d.Unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced, through the same code path as a full run: every metric
// BENCHMARK.json names must come out with its unit, and every check must
// pass.
func TestWorkloadsSmoke(t *testing.T) {
	f := loadBenchmark(t)
	for _, w := range Workloads() {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := Run(context.Background(), Options{
					Workload: w.Name, Seed: 2, Seconds: 0.3, Trace: traced, Dir: t.TempDir(), Tiny: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				r := rep.Result
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d: %v", r.Correct, r.Attempted, r.Failed, rep.Failures)
				}
				defs := f.EndToEnd
				if traced {
					defs = f.PerLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s in %s, want %s", d.Name, m.Unit, d.Unit)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestWriteTraceNotesDroppedSpans checks that a trace cut short by its caps
// says so in the report, and that what was kept is still written.
func TestWriteTraceNotesDroppedSpans(t *testing.T) {
	dir := t.TempDir()
	l := &spanLog{dropped: 3}
	l.spans = append(l.spans, span{Name: "cell.build", Key: "k"})
	prog := &cappedBuffer{dropped: 1}
	prog.buf.WriteString(`{"span":"run","dur_us":5}` + "\n")
	rep := &Report{Workload: "w"}
	if err := rep.writeTrace(dir, l, prog); err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings %q, want one about the dropped spans", rep.Findings)
	}
	for _, name := range []string{"w.bench.jsonl", "w.program.jsonl"} {
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || len(b) == 0 {
			t.Errorf("%s: %d bytes, %v", name, len(b), err)
		}
	}
	rep = &Report{Workload: "w"}
	if err := rep.writeTrace(dir, &spanLog{}, &cappedBuffer{}); err != nil || len(rep.Findings) != 0 {
		t.Errorf("nothing dropped: findings %q, err %v", rep.Findings, err)
	}
}

// TestQuartilesMatchPython holds Quartiles to Python's
// statistics.quantiles(xs, n=4) on values computed there.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6}, // the exclusive method extrapolates
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCleanWindows holds the steal filter to its rule: windows with more
// than maxSteal stolen are left out, but at least the least-stolen quarter
// is kept.
func TestCleanWindows(t *testing.T) {
	for _, c := range []struct {
		steals []float64
		want   []float64 // the kept windows' steal, least first
	}{
		{nil, nil},
		{[]float64{0, 0, 0.01}, []float64{0, 0, 0.01}},
		{[]float64{0.05, 0, 0.03, 0.01}, []float64{0, 0.01}},
		{[]float64{0.05, 0.09, 0.03, 0.06, 0.07, 0.08, 0.04, 0.1}, []float64{0.03, 0.04}},
		{[]float64{0.05, 0.09, 0.03}, []float64{0.03}},
	} {
		var ws []window
		for _, s := range c.steals {
			ws = append(ws, window{steal: s})
		}
		var got []float64
		for _, w := range cleanWindows(ws) {
			got = append(got, w.steal)
		}
		if len(got) != len(c.want) {
			t.Errorf("cleanWindows(steal %v) kept %v, want %v", c.steals, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("cleanWindows(steal %v) kept %v, want %v", c.steals, got, c.want)
				break
			}
		}
	}
}

// TestCompareVerdicts covers each verdict of Compare on a lower-is-better
// metric with a 10% bound.
func TestCompareVerdicts(t *testing.T) {
	bounds := []BoundDef{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}
	repeat := func(vals ...float64) *Repeat {
		var runs []*Report
		for _, v := range vals {
			runs = append(runs, &Report{Workload: "w", Result: Result{Metrics: map[string]Metric{
				"latency_p50_ms": {Value: v, Unit: "ms"}}}})
		}
		return &Repeat{Runs: runs, Summary: Summarize(runs)}
	}
	steady := repeat(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		name   string
		change *Repeat
		want   string
	}{
		{"same", repeat(100, 99, 101, 100, 98, 102, 100, 99, 101, 100), "unchanged"},
		{"faster", repeat(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), "improved"},
		{"slower", repeat(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "regressed"},
		{"noisy", repeat(60, 140, 80, 120, 100, 70, 130, 90, 110, 100), "unresolved"},
	} {
		v := Compare(steady, c.change, bounds)
		if len(v) != 1 || v[0].Verdict != c.want {
			t.Errorf("%s: verdicts %+v, want one %q", c.name, v, c.want)
		}
	}
	// A run whose own checks reject the metric makes the pair unresolved,
	// however clear the numbers look.
	faster := repeat(90, 91, 89, 90, 92, 88, 90, 91, 89, 90)
	faster.Runs[3].Unresolved = []string{"latency_p50_ms"}
	if v := Compare(steady, faster, bounds); len(v) != 1 || v[0].Verdict != "unresolved" {
		t.Errorf("flagged run: verdicts %+v, want one unresolved", v)
	}
}

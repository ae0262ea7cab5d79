package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// TestAllExperimentsRun pins RunAll's output, which is what mmexperiments
// prints, byte for byte against testdata/experiments.golden. Each subtest
// compares one experiment's section, so a drift names its experiment.
// Regenerate with: go test ./internal/harness -run TestAllExperimentsRun -update
func TestAllExperimentsRun(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatalf("RunAll: %v\noutput:\n%s", err, buf.String())
	}
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotSec, wantSec := sections(buf.String()), sections(string(want))
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			if gotSec[e.ID] != wantSec[e.ID] {
				t.Errorf("output deviates from the golden file (run with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
					gotSec[e.ID], wantSec[e.ID])
			}
		})
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("RunAll output deviates from the golden file outside the experiment sections")
	}
}

// TestRunAll checks that RunAll prints every registered experiment's banner,
// in registry order.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll repeats every experiment; skipped with -short")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	last := -1
	for _, e := range All() {
		i := strings.Index(out, "=== "+e.ID+" ")
		if i < 0 {
			t.Errorf("banner for %s missing", e.ID)
			continue
		}
		if i < last {
			t.Errorf("banner for %s out of registry order", e.ID)
		}
		last = i
	}
}

// sections splits RunAll output at its "=== ID — title" banners, keyed by
// experiment ID.
func sections(out string) map[string]string {
	m := map[string]string{}
	for _, sec := range strings.Split("\n"+out, "\n=== ")[1:] {
		id, _, _ := strings.Cut(sec, " ")
		m[id] = sec
	}
	return m
}

// TestReadmeArtefactTable holds README's experiment → paper artefact table
// to the registry: its Experiment and Paper artefact columns must equal
// All()'s ID and Paper fields, row for row.
func TestReadmeArtefactTable(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Experiment | Paper artefact |")
	if !ok {
		t.Fatal("README has no Experiment | Paper artefact table")
	}
	var got, want []string
	for _, line := range strings.Split(table, "\n")[2:] { // past the header and separator
		if !strings.HasPrefix(line, "| ") {
			break
		}
		cells := strings.Split(strings.TrimPrefix(line, "| "), " | ")
		got = append(got, cells[0]+" | "+cells[1])
	}
	for _, e := range All() {
		want = append(want, e.ID+" | "+e.Paper)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("README artefact table drifted from All():\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRegistry pins that the harness is the paper: the registry is
// exactly E1…E14 in order, and every experiment cites the artefact of the
// paper it reproduces.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("%d experiments registered, want 14", len(all))
	}
	cites := regexp.MustCompile(`§|Figure|Lemma|Theorem|Corollary|Remark`)
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
		if !cites.MatchString(e.Paper) {
			t.Errorf("experiment %s cites no paper artefact: Paper = %q", e.ID, e.Paper)
		}
	}
	if _, ok := ByID("E9"); !ok {
		t.Error("ByID(E9) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) found")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := newTable("a", "bb")
	tbl.AddRow(1, "x")
	tbl.AddRow(22, "yyy")
	var buf bytes.Buffer
	tbl.Render(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	tbl.SortRows(0)
	var buf2 bytes.Buffer
	tbl.Render(&buf2)
	if !strings.Contains(buf2.String(), "1") {
		t.Error("sorted table lost rows")
	}
}

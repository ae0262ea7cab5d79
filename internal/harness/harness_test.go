package harness

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatalf("%s (%s): %v\noutput so far:\n%s", e.ID, e.Paper, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no output", e.ID)
			}
		})
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

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll repeats every experiment; skipped with -short")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID+" ") {
			t.Errorf("banner for %s missing", e.ID)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("a", "bb")
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

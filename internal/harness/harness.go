package harness

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible artefact of the paper.
type Experiment struct {
	// ID is the experiment identifier, e.g. "E9"; cmd/mmexperiments -run
	// selects one by it.
	ID string
	// Title is a one-line description.
	Title string
	// Paper names the artefact being reproduced, e.g. "Theorem 5".
	Paper string
	// Run executes the experiment, writing human-readable tables to w.
	// A non-nil error means a machine-checked expectation failed.
	Run func(w io.Writer) error
}

// All returns the registry, E1–E14 in order. Each experiment is a pure
// function of its writer, so ordering cannot change any output.
func All() []Experiment {
	return []Experiment{
		e1(), e2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10(), e11(), e12(),
		e13(), e14(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, writing a banner per
// experiment, and returns the first failure (after running the rest).
func RunAll(w io.Writer) error {
	var firstErr error
	for _, e := range All() {
		fmt.Fprintf(w, "=== %s — %s (%s)\n", e.ID, e.Title, e.Paper)
		if err := e.Run(w); err != nil {
			fmt.Fprintf(w, "!!! %s FAILED: %v\n", e.ID, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		fmt.Fprintln(w)
	}
	return firstErr
}

// table is a minimal aligned text-table writer for experiment output.
type table struct {
	headers []string
	rows    [][]string
}

// newTable creates a table with the given column headers.
func newTable(headers ...string) *table {
	return &table{headers: headers}
}

// AddRow appends a row; cells are formatted with fmt.Sprint.
func (t *table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// SortRows sorts rows by the given column, numerically when possible.
func (t *table) SortRows(col int) {
	sort.SliceStable(t.rows, func(i, j int) bool {
		var a, b float64
		an, errA := fmt.Sscan(t.rows[i][col], &a)
		bn, errB := fmt.Sscan(t.rows[j][col], &b)
		if an == 1 && bn == 1 && errA == nil && errB == nil {
			return a < b
		}
		return t.rows[i][col] < t.rows[j][col]
	})
}

// Render writes the table with aligned columns.
func (t *table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = runeLen(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && runeLen(cell) > widths[i] {
				widths[i] = runeLen(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprint(w, cell)
			for pad := runeLen(cell); pad < widths[i]; pad++ {
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprintln(w)
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// runeLen counts runes, so the unicode in colour-system notation aligns.
func runeLen(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

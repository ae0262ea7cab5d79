package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadCompletedTornTail: at interruption points across a real sweep
// output, scanRows recovers exactly the complete rows and an offset that
// cuts the torn tail. (TestScanPlanResumesEveryPrefix resumes from each.)
func TestReadCompletedTornTail(t *testing.T) {
	cfg := tinyConfig()
	full := runJSONL(t, cfg)
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1] // trailing empty split

	for _, cut := range []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 2, len(full)} {
		state, err := scanRows(bytes.NewReader(full[:cut]), nil)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The valid size must cover exactly the complete rows before cut.
		wantRows, wantSize := 0, int64(0)
		for _, l := range lines {
			if wantSize+int64(len(l)) > int64(cut) {
				break
			}
			wantSize += int64(len(l))
			wantRows++
		}
		if state.Rows != wantRows || state.ValidSize != wantSize {
			t.Fatalf("cut %d: rows=%d size=%d, want %d/%d", cut, state.Rows, state.ValidSize, wantRows, wantSize)
		}
	}
}

// TestReadCompletedIDsMatchCells: the rows of a real output carry exactly
// the IDs and seeds CellPlan derives, in plan order — ScanPlan accepts the
// whole file — which is the contract that makes resume work at all.
func TestReadCompletedIDsMatchCells(t *testing.T) {
	cfg := tinyConfig()
	full := runJSONL(t, cfg)
	plan, err := CellPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	state, err := ScanPlan(bytes.NewReader(full), plan, func(r ScannedRow) error {
		ids = append(ids, r.ID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != len(plan) || len(ids) != len(plan) {
		t.Fatalf("%d cells, %d verified rows, %d callbacks", len(plan), state.Rows, len(ids))
	}
	for i, c := range plan {
		if ids[i] != c.ID {
			t.Errorf("row %d is %s, want %s", i, ids[i], c.ID)
		}
	}
}

// TestReadCompletedRejectsGarbage: under scanRows, complete rows that are not sweep
// results fail loudly instead of silently resuming over a wrong file.
func TestReadCompletedRejectsGarbage(t *testing.T) {
	for name, in := range map[string]string{
		"not json":        "this is not json\n",
		"wrong shape":     `{"hello":"world"}` + "\n",
		"missing newline": "", // handled below
	} {
		if name == "missing newline" {
			continue
		}
		if _, err := scanRows(strings.NewReader(in), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An empty file is a valid zero-state resume.
	state, err := scanRows(strings.NewReader(""), nil)
	if err != nil || state.Rows != 0 || state.ValidSize != 0 {
		t.Errorf("empty file: state=%+v err=%v", state, err)
	}
	// A complete JSON row with no trailing newline is re-emitted (the kill
	// landed between the row and its \n): excluded from the valid region.
	one := `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":0}`
	state, err = scanRows(strings.NewReader(one), nil)
	if err != nil || state.Rows != 0 || state.ValidSize != 0 {
		t.Errorf("newline-less row: state=%+v err=%v", state, err)
	}
	// With the newline it counts.
	var id string
	state, err = scanRows(strings.NewReader(one+"\n"), func(r ScannedRow) error { id = r.ID; return nil })
	if err != nil || state.Rows != 1 || id != "path:k=2,n=8/greedy/rep0" {
		t.Errorf("complete row: state=%+v err=%v", state, err)
	}
}

// TestReadCompletedLongRow: under scanRows, rows longer than the scan buffer (64 KiB) are
// assembled across chunks — the bounded reader enforces maxRowBytes during
// the read without breaking legitimately large histogram rows.
func TestReadCompletedLongRow(t *testing.T) {
	pad := strings.Repeat("x", 100_000)
	row := `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":0,"pad":"` + pad + `"}` + "\n"
	state, err := scanRows(strings.NewReader(row), nil)
	if err != nil || state.Rows != 1 {
		t.Fatalf("long row rejected: state=%+v err=%v", state, err)
	}
	if state.ValidSize != int64(len(row)) {
		t.Errorf("ValidSize %d != %d", state.ValidSize, len(row))
	}
}

// TestReadCompletedBuilderMixing: under scanRows, a row tagged by the retired sharded
// builder names an instance this tree cannot rebuild, so any file holding
// one — alone or after untagged rows — is refused with a builder
// MismatchError pointing at that row. A torn tagged tail is debris, not a
// row, and stays a clean stop.
func TestReadCompletedBuilderMixing(t *testing.T) {
	seq := `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":0}` + "\n"
	shard := `{"scenario":"path","params":"k=2,n=16","algo":"greedy","rep":0,"builder":"sharded"}` + "\n"
	for name, tc := range map[string]struct {
		data   string
		offset int64
	}{
		"alone":     {shard, 0},
		"after seq": {seq + shard, int64(len(seq))},
		"first":     {shard + seq, 0},
	} {
		_, err := scanRows(strings.NewReader(tc.data), nil)
		var mm *MismatchError
		if !errors.As(err, &mm) || mm.Field != "builder" || mm.Offset != tc.offset || mm.Cell != "path:k=2,n=16/greedy/rep0" {
			t.Errorf("%s: err = %v, want a builder MismatchError at offset %d", name, err, tc.offset)
		}
	}
	state, err := scanRows(strings.NewReader(seq+strings.TrimSuffix(shard, "\n")), nil)
	if err != nil || state.Rows != 1 || state.ValidSize != int64(len(seq)) {
		t.Errorf("torn tagged tail: state=%+v err=%v", state, err)
	}
}

// resumeFile resumes cfg's run in the file at path through Resume, Stream
// and Close, and returns the file's bytes afterwards.
func resumeFile(t *testing.T, cfg Config, path string) ([]byte, StreamStats, error) {
	t.Helper()
	o, err := Resume(path, &cfg)
	if err != nil {
		return nil, StreamStats{}, err
	}
	stats, err := Stream(context.Background(), cfg, NewJSONLSink(o))
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, stats, err
	}
	data, err := os.ReadFile(path)
	return data, stats, err
}

// TestScanPlanResumesEveryPrefix: a real output cut at every row boundary,
// one byte either side of it and mid-row resumes to the uninterrupted
// bytes, skipping exactly the complete rows the cut kept.
func TestScanPlanResumesEveryPrefix(t *testing.T) {
	cfg := tinyConfig()
	full := runJSONL(t, cfg)
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	var cuts []int
	at := 0
	for _, line := range bytes.SplitAfter(full, []byte("\n")) {
		cuts = append(cuts, at-1, at, at+1, at+len(line)/2)
		at += len(line)
	}
	for _, cut := range cuts {
		if cut < 0 || cut > len(full) {
			continue
		}
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, stats, err := resumeFile(t, cfg, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := bytes.Count(full[:cut], []byte("\n")); stats.SkippedResume != want {
			t.Errorf("cut %d: skipped %d cells, want %d", cut, stats.SkippedResume, want)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("cut %d: resumed file differs from the uninterrupted run", cut)
		}
	}
}

// TestScanPlanRefusals: a file that is not a prefix of the run is refused
// with a *MismatchError naming the field and the offending row's offset,
// and Resume leaves it byte for byte as it was — torn tail included.
func TestScanPlanRefusals(t *testing.T) {
	cfg := tinyConfig()
	rows := bytes.SplitAfter(runJSONL(t, cfg), []byte("\n"))
	rows = rows[:len(rows)-1]
	other := cfg
	other.Seed = 2
	reseeded := bytes.SplitAfter(runJSONL(t, other), []byte("\n"))
	other = cfg
	other.Grids = []string{"cycle:n=8"}
	foreign := runJSONL(t, other)

	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := join(rows[0], rows[1])
	torn := rows[3][:len(rows[3])/2]
	for _, tc := range []struct {
		name  string
		data  []byte
		field string
		at    int // offset of the offending row
	}{
		{"swapped", join(head, rows[3], rows[2], torn), "cell", len(head)},
		{"foreign", join(head, foreign, torn), "cell", len(head)},
		{"surplus", join(join(rows...), rows[0], torn), "cell", len(join(rows...))},
		{"seed", join(head, reseeded[2], torn), "seed", len(head)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.jsonl")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := resumeFile(t, cfg, path)
			var mm *MismatchError
			if !errors.As(err, &mm) || mm.Field != tc.field || mm.Offset != int64(tc.at) {
				t.Fatalf("err = %v, want a %s MismatchError at offset %d", err, tc.field, tc.at)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.data) {
				t.Errorf("the refused file was modified (err %v)", err)
			}
		})
	}
}

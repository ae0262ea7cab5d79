package sweep

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestReadCompletedTornTail: every possible interruption point of a real
// sweep output round-trips — ReadCompleted recovers exactly the complete
// rows and an offset that cuts the torn tail, and resuming from that
// truncation reproduces the clean file byte for byte.
func TestReadCompletedTornTail(t *testing.T) {
	cfg := tinyConfig()
	full := runJSONL(t, cfg)
	lines := bytes.SplitAfter(full, []byte("\n"))
	lines = lines[:len(lines)-1] // trailing empty split

	for _, cut := range []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 2, len(full)} {
		state, err := ReadCompleted(bytes.NewReader(full[:cut]))
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
		if len(state.Completed) != wantRows {
			t.Fatalf("cut %d: completed set %d != rows %d", cut, len(state.Completed), wantRows)
		}
	}
}

// TestReadCompletedIDsMatchCells: the IDs recovered from JSONL are the
// exact canonical cell IDs the driver skips on — the contract that makes
// resume work at all.
func TestReadCompletedIDsMatchCells(t *testing.T) {
	cfg := tinyConfig()
	full := runJSONL(t, cfg)
	state, err := ReadCompleted(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != state.Rows {
		t.Fatalf("%d cells, %d recovered rows", len(cells), state.Rows)
	}
	for _, c := range cells {
		if !state.Completed[c.id()] {
			t.Errorf("cell %s missing from recovered set", c.id())
		}
	}
}

// TestReadCompletedRejectsGarbage: complete rows that are not sweep
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
		if _, err := ReadCompleted(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// An empty file is a valid zero-state resume.
	state, err := ReadCompleted(strings.NewReader(""))
	if err != nil || state.Rows != 0 || state.ValidSize != 0 {
		t.Errorf("empty file: state=%+v err=%v", state, err)
	}
	// A complete JSON row with no trailing newline is re-emitted (the kill
	// landed between the row and its \n): excluded from the valid region.
	one := `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":0}`
	state, err = ReadCompleted(strings.NewReader(one))
	if err != nil || state.Rows != 0 || state.ValidSize != 0 {
		t.Errorf("newline-less row: state=%+v err=%v", state, err)
	}
	// With the newline it counts.
	state, err = ReadCompleted(strings.NewReader(one + "\n"))
	if err != nil || state.Rows != 1 || !state.Completed["path:k=2,n=8/greedy/rep0"] {
		t.Errorf("complete row: state=%+v err=%v", state, err)
	}
}

// TestReadCompletedLongRow: rows longer than the scan buffer (64 KiB) are
// assembled across chunks — the bounded reader enforces maxRowBytes during
// the read without breaking legitimately large histogram rows.
func TestReadCompletedLongRow(t *testing.T) {
	pad := strings.Repeat("x", 100_000)
	row := `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":0,"pad":"` + pad + `"}` + "\n"
	state, err := ReadCompleted(strings.NewReader(row))
	if err != nil || state.Rows != 1 {
		t.Fatalf("long row rejected: state=%+v err=%v", state, err)
	}
	if state.ValidSize != int64(len(row)) {
		t.Errorf("ValidSize %d != %d", state.ValidSize, len(row))
	}
}

// TestReadCompletedBuilderMixing: a row tagged by the retired sharded
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
		_, err := ReadCompleted(strings.NewReader(tc.data))
		var mm *MismatchError
		if !errors.As(err, &mm) || mm.Field != "builder" || mm.Offset != tc.offset || mm.Cell != "path:k=2,n=16/greedy/rep0" {
			t.Errorf("%s: err = %v, want a builder MismatchError at offset %d", name, err, tc.offset)
		}
	}
	state, err := ReadCompleted(strings.NewReader(seq + strings.TrimSuffix(shard, "\n")))
	if err != nil || state.Rows != 1 || state.ValidSize != int64(len(seq)) {
		t.Errorf("torn tagged tail: state=%+v err=%v", state, err)
	}
}

package sweep

import (
	"bytes"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// These tests pin the scanRows callback contract on the boundary shapes a
// killed writer actually produces: empty files, files ending exactly on a
// newline, a single torn row, and rows longer than the scanner's initial
// 64 KiB buffer. The TestReadCompleted* tests cover the recovered state;
// these cover what fn sees (and does not see).

// scanRow is a complete row with a distinguishing rep, for callback
// inspection.
func scanRow(rep int) string {
	return `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":` +
		strconv.Itoa(rep) + `,"seed":42}` + "\n"
}

func TestScanRowsEmptyFile(t *testing.T) {
	calls := 0
	state, err := scanRows(strings.NewReader(""), func(ScannedRow) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 || state.Rows != 0 || state.ValidSize != 0 {
		t.Fatalf("empty file: calls=%d state=%+v", calls, state)
	}
}

// TestScanRowsNewlineBoundaryEnd: a file ending exactly at a newline is a
// clean end — every row fires the callback, ValidSize is the full length,
// and the per-row offsets tile the file exactly.
func TestScanRowsNewlineBoundaryEnd(t *testing.T) {
	input := scanRow(0) + scanRow(1) + scanRow(2)
	var offsets []int64
	var seeds []int64
	state, err := scanRows(strings.NewReader(input), func(r ScannedRow) error {
		offsets = append(offsets, r.Offset)
		seeds = append(seeds, r.Seed)
		if !strings.HasSuffix(string(r.Line), "\n") {
			t.Errorf("row at %d delivered without its newline", r.Offset)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != 3 || state.ValidSize != int64(len(input)) {
		t.Fatalf("state = %+v, want 3 rows / size %d", state, len(input))
	}
	want := int64(0)
	for i := 0; i < 3; i++ {
		if offsets[i] != want {
			t.Fatalf("row %d offset = %d, want %d", i, offsets[i], want)
		}
		if seeds[i] != 42 {
			t.Fatalf("row %d seed = %d", i, seeds[i])
		}
		want += int64(len(scanRow(i)))
	}
}

// TestScanRowsSingleTornRow: a file holding nothing but an unterminated
// fragment recovers to the zero state without ever invoking the callback —
// the torn row is debris, not data.
func TestScanRowsSingleTornRow(t *testing.T) {
	for name, frag := range map[string]string{
		"mid-json":     `{"scenario":"path","params":"k=`,
		"full, no \\n": strings.TrimSuffix(scanRow(0), "\n"),
	} {
		calls := 0
		state, err := scanRows(strings.NewReader(frag), func(ScannedRow) error {
			calls++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if calls != 0 || state.Rows != 0 || state.ValidSize != 0 {
			t.Fatalf("%s: calls=%d state=%+v, want untouched zero state", name, calls, state)
		}
	}
	// A whitespace-only tail without its newline is torn debris as well:
	// no row, no callback, and ValidSize stays on the row boundary before
	// it, so a resumed writer never appends after stray bytes.
	state, err := scanRows(strings.NewReader("   "), func(ScannedRow) error {
		t.Fatal("callback fired on whitespace")
		return nil
	})
	if err != nil || state.Rows != 0 || state.ValidSize != 0 {
		t.Fatalf("whitespace tail: state=%+v err=%v", state, err)
	}
}

// TestScanRowsRowLongerThanInitialBuffer: a row past the scanner's 64 KiB
// initial buffer is reassembled across ReadSlice chunks and delivered to
// the callback whole, with following rows intact.
func TestScanRowsRowLongerThanInitialBuffer(t *testing.T) {
	pad := strings.Repeat("x", 1<<17) // 128 KiB ≫ the 64 KiB buffer
	big := `{"scenario":"path","params":"k=2,n=8","algo":"greedy","rep":7,"seed":42,"pad":"` + pad + `"}` + "\n"
	input := big + scanRow(8)
	var got []ScannedRow
	state, err := scanRows(strings.NewReader(input), func(r ScannedRow) error {
		got = append(got, ScannedRow{ID: r.ID, Offset: r.Offset, Line: append([]byte(nil), r.Line...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Rows != 2 || state.ValidSize != int64(len(input)) {
		t.Fatalf("state = %+v", state)
	}
	if len(got[0].Line) != len(big) || got[0].ID != "path:k=2,n=8/greedy/rep7" {
		t.Fatalf("big row delivered as %d bytes, id %q", len(got[0].Line), got[0].ID)
	}
	if got[1].Offset != int64(len(big)) || got[1].ID != "path:k=2,n=8/greedy/rep8" {
		t.Fatalf("row after big row = %+v", got[1])
	}
}

// TestScanRowsCallbackErrorAborts: fn's error comes back verbatim with the
// state of everything before the offending row — the contract the shard
// merge's canonical-order verification layers on.
func TestScanRowsCallbackErrorAborts(t *testing.T) {
	sentinel := errors.New("stop here")
	input := scanRow(0) + scanRow(1) + scanRow(2)
	calls := 0
	state, err := scanRows(strings.NewReader(input), func(r ScannedRow) error {
		if calls++; calls == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the callback's sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times after aborting, want 2", calls)
	}
	// The aborted row is not recorded: one complete row's worth of state.
	if state.Rows != 1 || state.ValidSize != int64(len(scanRow(0))) {
		t.Fatalf("state after abort = %+v", state)
	}
}

// FuzzScanRows drives arbitrary bytes through scanRows, the scanner every
// -resume, shard-worker restart and merge trusts. It must never panic. On
// success ValidSize must lie within the input and land on a row boundary
// (0, or just after a newline), every row the callback sees must be the
// input's own bytes at its offset, and re-scanning just the valid prefix
// must recover the same state. The seed corpus (testdata/fuzz/FuzzScanRows)
// holds torn tails, blank lines, non-rows and a row of the retired sharded
// builder.
func FuzzScanRows(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		state, err := scanRows(bytes.NewReader(data), func(r ScannedRow) error {
			end := r.Offset + int64(len(r.Line))
			if r.Offset < 0 || end > int64(len(data)) || !bytes.Equal(data[r.Offset:end], r.Line) {
				t.Fatalf("row %s at offset %d is not the input's bytes there", r.ID, r.Offset)
			}
			if !bytes.HasSuffix(r.Line, []byte("\n")) {
				t.Fatalf("row %s at offset %d lacks its newline", r.ID, r.Offset)
			}
			return nil
		})
		if err != nil {
			return
		}
		if state.ValidSize < 0 || state.ValidSize > int64(len(data)) {
			t.Fatalf("ValidSize %d outside [0, %d]", state.ValidSize, len(data))
		}
		if state.ValidSize > 0 && data[state.ValidSize-1] != '\n' {
			t.Fatalf("ValidSize %d is not a row boundary", state.ValidSize)
		}
		again, err := scanRows(bytes.NewReader(data[:state.ValidSize]), nil)
		if err != nil {
			t.Fatalf("re-scanning the valid prefix failed: %v", err)
		}
		if !reflect.DeepEqual(again, state) {
			t.Fatalf("re-scan of the valid prefix differs:\n got %+v\nwant %+v", again, state)
		}
	})
}

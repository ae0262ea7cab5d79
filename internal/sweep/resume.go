package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// maxRowBytes bounds one JSONL row during resume scanning. Rows carry
// per-round histograms, so they can be long — but a row past this size is
// corruption, not data (the biggest legitimate rows are a few MB of
// histogram at extreme round counts).
const maxRowBytes = 1 << 26

// ResumeState is what ReadCompleted recovers from an existing JSONL sweep
// output.
type ResumeState struct {
	// Completed holds the canonical Scenario:Params/Algo/rep ID of every
	// complete row; assign it to Config.Completed to skip those cells.
	Completed map[string]bool
	// ValidSize is the byte offset just past the last complete row. A
	// streaming run killed mid-write leaves a torn final line; a resuming
	// writer must truncate the file to ValidSize before appending so the
	// resumed output stays byte-identical to an uninterrupted run.
	ValidSize int64
	// Seeds maps each completed cell ID to the instance seed its row
	// recorded; assign it to Config.CompletedSeeds so the resuming run
	// refuses a base-seed mismatch instead of appending rows from a
	// different instance universe.
	Seeds map[string]int64
	// Offsets maps each completed cell ID to the byte offset its row
	// starts at — assign it to Config.CompletedOffsets so a refusal can
	// point at the offending row in the file.
	Offsets map[string]int64
	// Rows counts the complete rows.
	Rows int
}

// MismatchError reports a resume refusal: the rows already in the output
// file were produced under a different configuration than the run trying
// to append to them, so continuing would mix two instance universes in one
// artefact. Field names the mismatched configuration axis ("seed" or
// "builder"), Offset the byte position of the row that pins the recorded
// value. cmd/mmsweep maps this error to exit code 2 (configuration
// mismatch) — distinct from exit 1 (sweep failure) — so supervisors can
// tell "restarting cannot fix this" from "retry may succeed".
type MismatchError struct {
	// Field is the mismatched axis: "seed" or "builder".
	Field string
	// Cell is the canonical ID of the offending row.
	Cell string
	// Offset is the byte offset of the row that recorded Want.
	Offset int64
	// Want is the recorded value, Got the value this run derives.
	Want, Got string
}

// Error implements error.
func (e *MismatchError) Error() string {
	where := fmt.Sprintf("offset %d", e.Offset)
	if e.Cell != "" {
		where = fmt.Sprintf("cell %s at %s", e.Cell, where)
	}
	return fmt.Sprintf("sweep: resume: %s mismatch: %s recorded %s but this run derives %s — the existing rows describe a different instance universe",
		e.Field, where, e.Want, e.Got)
}

// ScannedRow is one complete JSONL row seen by ScanRows: its canonical
// identity, the fields resume and merge verification depend on, and the
// raw bytes. Line includes the terminating newline and is only valid for
// the duration of the callback — a consumer that retains it must copy.
type ScannedRow struct {
	// ID is the canonical cell identity, identical to Result.ID().
	ID string
	// Seed is the row's recorded instance seed.
	Seed int64
	// Violations counts the row's recorded contract breaches.
	Violations int
	// Offset is the byte offset the row starts at; Line is the raw row.
	Offset int64
	Line   []byte
}

// ScanRows walks the complete rows of a JSONL sweep output in file order,
// calling fn for each, and returns the same ResumeState ReadCompleted
// does. A torn final line — the usual debris of a killed run — ends the
// scan cleanly without a callback; a complete row that is not valid JSON
// or lacks the identity fields is an error. A complete row carrying a
// "builder" tag was written by the retired sharded instance builder, which
// named a different instance for the same seed than any this tree builds;
// it is refused with a *MismatchError{Field: "builder"}. fn may be nil
// (scan for the state only); a non-nil error from fn aborts the scan and
// is returned verbatim, so callers can layer their own verification (the
// shard merge checks canonical order this way).
func ScanRows(r io.Reader, fn func(ScannedRow) error) (ResumeState, error) {
	state := ResumeState{
		Completed: map[string]bool{},
		Seeds:     map[string]int64{},
		Offsets:   map[string]int64{},
	}
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := readRow(br)
		if err == errRowTooLong {
			return ResumeState{}, fmt.Errorf("sweep: resume: row at offset %d exceeds %d bytes", state.ValidSize, maxRowBytes)
		}
		complete := err == nil // a line without its \n is a torn final write
		if len(bytes.TrimSpace(line)) > 0 {
			var row struct {
				Scenario   string            `json:"scenario"`
				Params     string            `json:"params"`
				Algo       string            `json:"algo"`
				Rep        int               `json:"rep"`
				Seed       int64             `json:"seed"`
				Builder    string            `json:"builder"`
				Violations []json.RawMessage `json:"violations"`
			}
			if jsonErr := json.Unmarshal(line, &row); jsonErr != nil {
				if complete {
					return ResumeState{}, fmt.Errorf("sweep: resume: invalid JSONL row at offset %d: %w", state.ValidSize, jsonErr)
				}
				return state, nil // torn trailing fragment: stop before it
			}
			if row.Scenario == "" || row.Params == "" || row.Algo == "" {
				return ResumeState{}, fmt.Errorf("sweep: resume: row at offset %d is not a sweep result (missing identity fields)", state.ValidSize)
			}
			if !complete {
				// A full JSON object but no terminating newline: the write
				// was cut between the row and its \n. Re-emit it rather
				// than risk a joined line.
				return state, nil
			}
			id := fmt.Sprintf("%s:%s/%s/rep%d", row.Scenario, row.Params, row.Algo, row.Rep)
			if row.Builder != "" {
				return ResumeState{}, &MismatchError{
					Field:  "builder",
					Cell:   id,
					Offset: state.ValidSize,
					Want:   fmt.Sprintf("%q", row.Builder),
					Got:    `""`,
				}
			}
			if fn != nil {
				err := fn(ScannedRow{
					ID:         id,
					Seed:       row.Seed,
					Violations: len(row.Violations),
					Offset:     state.ValidSize,
					Line:       line,
				})
				if err != nil {
					return state, err
				}
			}
			state.Completed[id] = true
			state.Seeds[id] = row.Seed
			state.Offsets[id] = state.ValidSize
			state.Rows++
		}
		if err == io.EOF {
			// A blank final line without its \n is torn debris too: stop
			// before it, so ValidSize always ends on a row boundary.
			return state, nil
		}
		if err != nil {
			return ResumeState{}, fmt.Errorf("sweep: resume: %w", err)
		}
		state.ValidSize += int64(len(line))
	}
}

// ReadCompleted reconstructs the resume state from an existing JSONL sweep
// output: every syntactically complete row contributes its canonical cell
// ID, and a torn final line is excluded from ValidSize rather than treated
// as corruption. It is ScanRows without a row callback.
func ReadCompleted(r io.Reader) (ResumeState, error) {
	return ScanRows(r, nil)
}

// Configure primes cfg to resume over the recovered rows: completed cells
// are skipped, and the recorded seeds and offsets travel along so a
// base-seed mismatch is refused with a *MismatchError pointing at the
// offending row instead of silently mixing instance universes.
func (s *ResumeState) Configure(cfg *Config) {
	cfg.Completed = s.Completed
	cfg.CompletedSeeds = s.Seeds
	cfg.CompletedOffsets = s.Offsets
}

// DecodeRows replays an existing JSONL sweep output through a sink, row by
// row, in file order — the bridge from merged shard files back to the
// aggregate and violations sinks a live stream would have fed. Unlike
// ScanRows it refuses a torn tail: a merged artefact must be complete, so
// trailing bytes past the last complete row are an error, not debris.
func DecodeRows(r io.Reader, sink Sink) (int, error) {
	cr := &countingReader{r: r}
	state, err := ScanRows(cr, func(row ScannedRow) error {
		var res Result
		if err := json.Unmarshal(row.Line, &res); err != nil {
			return fmt.Errorf("sweep: row at offset %d: %w", row.Offset, err)
		}
		return sink.Emit(&res)
	})
	if err != nil {
		return state.Rows, err
	}
	if cr.n > state.ValidSize {
		return state.Rows, fmt.Errorf("sweep: torn row at offset %d — the file is not a complete sweep output", state.ValidSize)
	}
	return state.Rows, nil
}

// countingReader counts the bytes actually read, so DecodeRows can tell a
// clean EOF (everything consumed was complete rows) from a torn tail.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// errRowTooLong marks a row that blew the maxRowBytes cap mid-read.
var errRowTooLong = fmt.Errorf("row exceeds %d bytes", maxRowBytes)

// readRow reads one newline-terminated row through the bounded buffer,
// enforcing maxRowBytes DURING the read — a newline-free multi-gigabyte
// file fails at the cap, it does not get slurped into memory first. The
// returned error is io.EOF at end of input, errRowTooLong past the cap, or
// any underlying read error; like bufio.ReadBytes, a non-nil line may
// accompany io.EOF (the torn final write).
func readRow(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if int64(len(line)+len(chunk)) > maxRowBytes {
			return nil, errRowTooLong
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return line, err
		}
	}
}

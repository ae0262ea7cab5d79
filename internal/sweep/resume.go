package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// maxRowBytes bounds one JSONL row during resume scanning. Rows carry
// per-round histograms, so they can be long — but a row past this size is
// corruption, not data (the biggest legitimate rows are a few MB of
// histogram at extreme round counts).
const maxRowBytes = 1 << 26

// ResumeState is what scanRows recovers from an existing JSONL sweep
// output.
type ResumeState struct {
	// ValidSize is the byte offset just past the last complete row. A
	// streaming run killed mid-write leaves a torn final line; a resuming
	// writer must truncate the file to ValidSize before appending so the
	// resumed output stays byte-identical to an uninterrupted run.
	ValidSize int64
	// Rows counts the complete rows.
	Rows int
}

// MismatchError reports a refusal to build on existing rows: they are not
// a prefix of the sweep trying to continue them, so appending to (or
// merging) them would mix two sweeps in one artefact. Field names the
// mismatched axis — "cell" (a row the plan does not have at that
// position, or one past its end), "seed" (a different base seed) or
// "builder" (a row of the retired sharded instance builder) — and Offset
// the byte position of the offending row. cmd/mmsweep maps this error to
// exit code 2 (configuration mismatch) — distinct from exit 1 (sweep
// failure) — so supervisors can tell "restarting cannot fix this" from
// "retry may succeed".
type MismatchError struct {
	// Field is the mismatched axis: "cell", "seed" or "builder".
	Field string
	// Cell is the canonical ID of the offending row; empty for Field
	// "cell", whose Want is that ID.
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
	return fmt.Sprintf("sweep: %s mismatch: %s recorded %s but this run derives %s — the existing rows are not a prefix of this sweep",
		e.Field, where, e.Want, e.Got)
}

// ScannedRow is one complete JSONL row seen by scanRows: its canonical
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

// scanRows walks the complete rows of a JSONL sweep output in file order,
// calling fn for each, and returns the recovered ResumeState. A torn
// final line — the usual debris of a killed run — ends the scan cleanly
// without a callback; a complete row that is not valid JSON or lacks the
// identity fields is an error. A complete row carrying a
// "builder" tag was written by the retired sharded instance builder, which
// named a different instance for the same seed than any this tree builds;
// it is refused with a *MismatchError{Field: "builder"}. fn may be nil
// (scan for the state only); a non-nil error from fn aborts the scan and
// is returned verbatim, so callers can layer their own verification
// (ScanPlan checks the rows against a sweep's plan this way).
func scanRows(r io.Reader, fn func(ScannedRow) error) (ResumeState, error) {
	var state ResumeState
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := readRow(br)
		if err == errRowTooLong {
			return ResumeState{}, fmt.Errorf("sweep: row at offset %d exceeds %d bytes", state.ValidSize, maxRowBytes)
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
					return ResumeState{}, fmt.Errorf("sweep: invalid JSONL row at offset %d: %w", state.ValidSize, jsonErr)
				}
				return state, nil // torn trailing fragment: stop before it
			}
			if row.Scenario == "" || row.Params == "" || row.Algo == "" {
				return ResumeState{}, fmt.Errorf("sweep: row at offset %d is not a sweep result (missing identity fields)", state.ValidSize)
			}
			if !complete {
				// A full JSON object but no terminating newline: the write
				// was cut between the row and its \n. Re-emit it rather
				// than risk a joined line.
				return state, nil
			}
			id := cellID(row.Scenario, row.Params, row.Algo, row.Rep)
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
			state.Rows++
		}
		if err == io.EOF {
			// A blank final line without its \n is torn debris too: stop
			// before it, so ValidSize always ends on a row boundary.
			return state, nil
		}
		if err != nil {
			return ResumeState{}, fmt.Errorf("sweep: %w", err)
		}
		state.ValidSize += int64(len(line))
	}
}

// ScanPlan is scanRows holding the file to plan, the cells of one sweep
// run in canonical order: complete row i must carry plan[i]'s ID and seed.
// A row naming another cell, or one past the end of the plan, is refused
// with a *MismatchError{Field: "cell"}; a row whose seed differs, with
// Field "seed". Either way the error points at the row's offset. A file
// that passes is a prefix of the run's output — the one condition under
// which resuming, restarting or merging reproduces an uninterrupted run
// byte for byte. fn, when non-nil, sees each row after it passes.
func ScanPlan(r io.Reader, plan []CellInfo, fn func(ScannedRow) error) (ResumeState, error) {
	i := 0 // rows verified so far
	return scanRows(r, func(row ScannedRow) error {
		mm := &MismatchError{Field: "cell", Offset: row.Offset, Want: row.ID}
		switch {
		case i == len(plan):
			mm.Got = fmt.Sprintf("nothing past its %d cells", len(plan))
			return mm
		case row.ID != plan[i].ID:
			mm.Got = fmt.Sprintf("%s at position %d", plan[i].ID, i)
			return mm
		case row.Seed != plan[i].Seed:
			mm.Field, mm.Cell = "seed", row.ID
			mm.Want, mm.Got = strconv.FormatInt(row.Seed, 10), strconv.FormatInt(plan[i].Seed, 10)
			return mm
		}
		i++
		if fn != nil {
			return fn(row)
		}
		return nil
	})
}

// Output is a sweep's durable output file. Writes are buffered; Flush
// pushes them to the kernel — JSONLSink calls it after every row, so a
// killed process leaves every complete row on disk — and Close flushes,
// fsyncs, then closes, so the rows are on stable storage before the run
// reports success. Fsync is paid once, at Close: per-row fsync would
// serialise the sweep on the disk.
type Output struct {
	f  file
	bw *bufio.Writer
}

// file is what Output needs of an *os.File.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

// Create creates (or truncates) path as a fresh Output.
func Create(path string) (*Output, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Output{f: f, bw: bufio.NewWriter(f)}, nil
}

// Resume opens path to continue cfg's run (the Shard slice when Shard is
// set) in it. It first verifies with ScanPlan that the file's complete
// rows are a prefix of the run; only then does it cut a torn tail, seek to
// the end and set cfg.Done to the rows already on disk, so Stream appends
// exactly the missing suffix. A refused file is left as Resume found it.
// A missing file is created and resumes from nothing.
func Resume(path string, cfg *Config) (*Output, error) {
	plan, err := CellPlan(*cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	state, err := ScanPlan(f, plan, nil)
	if err == nil {
		err = f.Truncate(state.ValidSize)
	}
	if err == nil {
		_, err = f.Seek(state.ValidSize, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	cfg.Done = state.Rows
	return &Output{f: f, bw: bufio.NewWriter(f)}, nil
}

// Write buffers p.
func (o *Output) Write(p []byte) (int, error) { return o.bw.Write(p) }

// Flush hands the buffered bytes to the kernel.
func (o *Output) Flush() error { return o.bw.Flush() }

// Close flushes, fsyncs and closes. It is safe to report success only
// after Close returns nil.
func (o *Output) Close() error {
	err := o.bw.Flush()
	if err == nil {
		err = o.f.Sync()
	}
	if cerr := o.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// DecodeRows replays an existing JSONL sweep output through a sink, row by
// row, in file order — the bridge from merged shard files back to the
// aggregate and violations sinks a live stream would have fed. Unlike
// scanRows it refuses a torn tail: a merged artefact must be complete, so
// trailing bytes past the last complete row are an error, not debris.
func DecodeRows(r io.Reader, sink Sink) (int, error) {
	cr := &countingReader{r: r}
	state, err := scanRows(cr, func(row ScannedRow) error {
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

package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the benchmark's in-memory span log, and maxProgramTrace
// the bytes kept from the program's own tracer: a traced sweep-cells run
// emits hundreds of thousands of spans, and an unbounded log would grow
// the heap the run is measuring. Spans past the cap are counted, not kept.
const (
	maxSpans        = 1 << 18
	maxProgramTrace = 32 << 20
)

// span is one benchmark-owned span: a call the benchmark timed from outside
// a layer (cell.build, cell.emit, request, handler, resolve), tagged with
// the cell or slot it belongs to.
type span struct {
	Name    string `json:"span"`
	Key     string `json:"key"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// spanLog keeps spans in memory until the run ends. A nil log drops
// everything, so untraced runs pay one branch.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (l *spanLog) add(name, key string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{Name: name, Key: key, StartUS: start.UnixMicro(), DurUS: d.Microseconds()})
}

// cappedBuffer is the in-memory writer behind the program's obs.Tracer: it
// keeps whole lines up to maxProgramTrace bytes and counts the rest.
type cappedBuffer struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	dropped int
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len()+len(p) > maxProgramTrace {
		b.dropped++
		return len(p), nil
	}
	return b.buf.Write(p)
}

// programSpanSums totals the program tracer's span durations by name, in
// seconds.
func (b *cappedBuffer) programSpanSums() map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	sums := map[string]float64{}
	for _, line := range bytes.Split(b.buf.Bytes(), []byte{'\n'}) {
		var ev struct {
			Span  string `json:"span"`
			DurUS int64  `json:"dur_us"`
		}
		if len(line) == 0 || json.Unmarshal(line, &ev) != nil {
			continue
		}
		sums[ev.Span] += float64(ev.DurUS) / 1e6
	}
	return sums
}

// writeTrace writes the kept spans under dir once the run has ended:
// <workload>.bench.jsonl for the benchmark's spans, <workload>.program.jsonl
// for the program's. A trace cut short by the caps is noted as a finding.
// It returns the first error.
func (rep *Report) writeTrace(dir string, l *spanLog, prog *cappedBuffer) error {
	if l.dropped > 0 || prog.dropped > 0 {
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"trace: the files keep the first %d benchmark spans and %d MB of program spans; %d spans and %d program writes past the caps were dropped",
			len(l.spans), maxProgramTrace>>20, l.dropped, prog.dropped))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, rep.Workload+".bench.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rep.Workload+".program.jsonl"), prog.buf.Bytes(), 0o644)
}

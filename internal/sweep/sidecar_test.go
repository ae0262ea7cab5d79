package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// TestPerRoundCodecRoundTrip: the delta+varint histogram codec is lossless
// across the shapes sweeps produce — monotone decay, spikes, zeros.
func TestPerRoundCodecRoundTrip(t *testing.T) {
	cases := [][][2]int{
		nil,
		{{10, 80}},
		{{100, 800}, {90, 720}, {40, 320}, {0, 0}},
		{{1, 8}, {1 << 30, 1 << 31}, {3, 24}},
		{{0, 0}, {0, 0}, {0, 0}},
	}
	for i, h := range cases {
		got, err := unpackPerRound(packPerRound(h), len(h))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(h) {
			t.Fatalf("case %d: %d rounds, want %d", i, len(got), len(h))
		}
		for r := range h {
			if got[r] != h[r] {
				t.Fatalf("case %d round %d: %v, want %v", i, r, got[r], h[r])
			}
		}
	}
}

// TestPerRoundCodecRejectsCorruption: truncation and trailing garbage are
// errors, not silent misreads.
func TestPerRoundCodecRejectsCorruption(t *testing.T) {
	p := packPerRound([][2]int{{100, 800}, {90, 720}})
	if _, err := unpackPerRound(p[:len(p)-1], 2); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := unpackPerRound(append(p, 0), 2); err == nil {
		t.Error("trailing bytes decoded without error")
	}
}

// TestSidecarSinkSplitsRows: the sink strips per_round from forwarded rows
// without mutating the driver-owned original, and the sidecar reassembles
// the exact histograms keyed by cell ID.
func TestSidecarSinkSplitsRows(t *testing.T) {
	cfg := tinyConfig()

	// Reference run: full rows, histograms attached.
	var ref collectSink
	if _, err := Stream(context.Background(), cfg, &ref); err != nil {
		t.Fatal(err)
	}

	var main, side bytes.Buffer
	var got collectSink
	sink := NewSidecarSink(MultiSink(NewJSONLSink(&main), &got), &side)
	if _, err := Stream(context.Background(), cfg, sink); err != nil {
		t.Fatal(err)
	}

	if len(got.results) != len(ref.results) {
		t.Fatalf("%d rows through sidecar, want %d", len(got.results), len(ref.results))
	}
	hist, err := readSidecar(&side)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.results {
		want := &ref.results[i]
		row := &got.results[i]
		if row.PerRound != nil {
			t.Fatalf("row %s still carries per_round after sidecar split", row.ID())
		}
		if want.PerRound == nil {
			continue
		}
		h, ok := hist[want.ID()]
		if !ok {
			t.Fatalf("sidecar missing histogram for %s", want.ID())
		}
		if !reflect.DeepEqual(h, want.PerRound) {
			t.Fatalf("%s: sidecar histogram %v, want %v", want.ID(), h, want.PerRound)
		}
		// Everything except the histogram must survive untouched.
		slim := *want
		slim.PerRound = nil
		if !reflect.DeepEqual(*row, slim) {
			t.Fatalf("%s: forwarded row differs beyond per_round", row.ID())
		}
	}

	// Schema check: stripped rows must not contain a per_round key at all
	// (omitempty), so downstream JSONL readers see the unchanged schema.
	if bytes.Contains(main.Bytes(), []byte(`"per_round"`)) {
		t.Error("main JSONL still contains per_round keys")
	}
	var anyRow map[string]any
	if err := json.Unmarshal(main.Bytes()[:bytes.IndexByte(main.Bytes(), '\n')], &anyRow); err != nil {
		t.Fatalf("main stream is not valid JSONL: %v", err)
	}
}

// TestSidecarSinkLeavesOriginalIntact: sinks beside the sidecar in a
// MultiSink read the same Result, so the sink must forward a copy rather
// than clearing the field on the original.
func TestSidecarSinkLeavesOriginalIntact(t *testing.T) {
	r := Result{Scenario: "s", Params: "n=8", Algo: "greedy", PerRound: [][2]int{{4, 32}, {2, 16}}}
	var side bytes.Buffer
	sink := NewSidecarSink(SinkFunc(func(fwd *Result) error {
		if fwd.PerRound != nil {
			t.Error("forwarded row still has per_round")
		}
		return nil
	}), &side)
	if err := sink.Emit(&r); err != nil {
		t.Fatal(err)
	}
	if len(r.PerRound) != 2 {
		t.Fatal("sink mutated the driver-owned Result")
	}
}

// readSidecar decodes a sidecar stream into cell-ID → histogram.
func readSidecar(rd io.Reader) (map[string][][2]int, error) {
	out := map[string][][2]int{}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var row sidecarRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("sidecar line %d: %w", line, err)
		}
		h, err := row.PerRound()
		if err != nil {
			return nil, fmt.Errorf("sidecar line %d (%s): %w", line, row.ID, err)
		}
		out[row.ID] = h
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

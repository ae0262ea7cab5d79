package sweep

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// SidecarSink splits the per_round histograms out of the row stream: each
// row's histogram is written to a separate sidecar JSONL stream keyed by
// the cell's ID, and the row forwarded to the inner sink has PerRound
// stripped. The main rows keep their exact schema — per_round is already
// `omitempty`, so a stripped row is byte-identical to one that never
// carried a histogram — while the sidecar stores the arrays delta+varint
// packed (JSON base64 of the packed bytes), which is typically 5–10×
// smaller than the plain nested arrays: consecutive rounds of one run have
// slowly-shrinking traffic, so most deltas fit one or two bytes.
//
// The sink is opt-in (mmsweep -perround-sidecar) and lossless: readSidecar
// reassembles the exact [][2]int histograms of the cells one stream
// executes. A sidecar is written fresh by one uninterrupted run, so
// mmsweep refuses the flag (exit 2) with -resume, -shard, -supervise and
// -merge, where it would lose the kept rows' histograms or be ignored.
type SidecarSink struct {
	inner Sink
	enc   *json.Encoder
	fl    flusher
}

// NewSidecarSink wraps inner, diverting histograms to w.
func NewSidecarSink(inner Sink, w io.Writer) *SidecarSink {
	s := &SidecarSink{inner: inner, enc: json.NewEncoder(w)}
	if f, ok := w.(flusher); ok {
		s.fl = f
	}
	return s
}

// Emit implements Sink. The forwarded row is a shallow copy, so sinks
// beside this one in a MultiSink still see the original's PerRound.
func (s *SidecarSink) Emit(r *Result) error {
	if len(r.PerRound) == 0 {
		return s.inner.Emit(r)
	}
	row := sidecarRow{ID: r.ID(), Rounds: len(r.PerRound), Packed: packPerRound(r.PerRound)}
	if err := s.enc.Encode(&row); err != nil {
		return err
	}
	if s.fl != nil {
		if err := s.fl.Flush(); err != nil {
			return err
		}
	}
	slim := *r
	slim.PerRound = nil
	return s.inner.Emit(&slim)
}

// sidecarRow is one sidecar line: the cell identity (matching Result.ID of
// the row it was split from) and its packed histogram.
type sidecarRow struct {
	ID     string `json:"id"`
	Rounds int    `json:"rounds"`
	Packed []byte `json:"packed,omitempty"`
}

// PerRound unpacks the row back into the histogram the Result carried.
func (r *sidecarRow) PerRound() ([][2]int, error) {
	return unpackPerRound(r.Packed, r.Rounds)
}

// packPerRound encodes the histogram as interleaved zigzag-varint deltas:
// for each round, delta(messages) then delta(bytes) against the previous
// round.
func packPerRound(h [][2]int) []byte {
	buf := make([]byte, 0, 3*len(h))
	var tmp [binary.MaxVarintLen64]byte
	var pm, pb int64
	for _, rt := range h {
		dm, db := int64(rt[0])-pm, int64(rt[1])-pb
		pm, pb = int64(rt[0]), int64(rt[1])
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64((dm<<1)^(dm>>63)))]...)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64((db<<1)^(db>>63)))]...)
	}
	return buf
}

// unpackPerRound is the inverse of packPerRound.
func unpackPerRound(p []byte, rounds int) ([][2]int, error) {
	h := make([][2]int, 0, rounds)
	var pm, pb int64
	for i := 0; i < rounds; i++ {
		for j, prev := range [...]*int64{&pm, &pb} {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return nil, fmt.Errorf("truncated histogram at round %d field %d", i+1, j)
			}
			p = p[n:]
			*prev += int64(u>>1) ^ -int64(u&1)
		}
		h = append(h, [2]int{int(pm), int(pb)})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d rounds", len(p), rounds)
	}
	return h, nil
}

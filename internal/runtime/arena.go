package runtime

import (
	"encoding/binary"

	"repro/internal/group"
)

// ColorList is the colour-list message payload used by the reduction-style
// machines: a node's current incident edge colours, snapshotted for one
// round. Machines send *ColorList rather than a bare slice because boxing a
// pointer into the Message interface stores a single word and never
// allocates, whereas boxing a slice copies a three-word header to the heap
// on every send. Receivers may read the list during their receive call
// only; the backing memory is recycled when the round ends.
//
// A list is a delta+varint byte string bump-allocated by RoundArena.Pack:
// consecutive colours are close after the Linial steps, so most deltas fit
// one byte and the arena's slab traffic is roughly 8× smaller than a
// []group.Color copy. WireBytes is still 8 bytes per colour: packing is an
// engine-internal storage optimisation, not a change to the model's wire
// vocabulary, so the traffic record — and the paper's communication
// bounds checked against it — are unaffected.
type ColorList struct {
	packed []byte
	count  int
}

// Len is the number of colours in the list.
func (l *ColorList) Len() int { return l.count }

// WireBytes implements Sizer for the traffic record: a colour list
// costs one machine word per colour on the wire, however it is stored.
func (l *ColorList) WireBytes() int { return 8 * l.count }

// AppendTo appends the list's colours to dst and returns it. The list is
// decoded in place — zigzag uvarint deltas, the inverse of Pack — so a
// receiver with a reusable scratch buffer reads it without allocating.
func (l *ColorList) AppendTo(dst []group.Color) []group.Color {
	p := l.packed
	prev := int64(0)
	for i := 0; i < l.count; i++ {
		u, n := binary.Uvarint(p)
		p = p[n:]
		prev += int64(u>>1) ^ -int64(u&1)
		dst = append(dst, group.Color(prev))
	}
	return dst
}

// RoundArena is a per-worker bump allocator for one round's outgoing
// message payloads. The engine hands it to Machine.Send and resets it once
// the round's receive phase has completed behind a barrier, so payloads
// written into it live exactly as long as the messages that reference them
// are in flight.
//
// Contract for machines:
//
//   - Allocate payloads only during Send, only from the arena passed in,
//     and do not retain the arena itself across calls.
//   - A payload may be shared across all of the node's outgoing edges in
//     the same round (receivers only read it).
//   - Receivers must not retain a payload — or any slice into it — past
//     the Receive call that delivered it; the arena recycles the backing
//     slabs on the next round's send phase.
//
// The zero value is ready to use; slabs grow on demand and are retained
// across Reset, so a pooled arena reaches a steady state where whole
// rounds allocate nothing.
type RoundArena struct {
	lists []ColorList
	bytes []byte
	nl    int
	nb    int
}

// newList hands out the next pooled list header; growth abandons the old
// slab so payloads already handed out stay intact.
func (a *RoundArena) newList() *ColorList {
	if a.nl == len(a.lists) {
		size := 2 * len(a.lists)
		if size < 64 {
			size = 64
		}
		a.lists = make([]ColorList, size)
		a.nl = 0
	}
	l := &a.lists[a.nl]
	a.nl++
	return l
}

// Pack encodes colors into a list — zigzag uvarint deltas between
// consecutive colours, bump-allocated from the arena's byte slab — valid
// until the next Reset. The caller keeps ownership of colors; the packed
// copy is immutable. Growth abandons the old slab rather than moving
// payloads that are already in flight.
func (a *RoundArena) Pack(colors []group.Color) *ColorList {
	l := a.newList()
	need := binary.MaxVarintLen64 * len(colors)
	if a.nb+need > len(a.bytes) {
		size := 2 * len(a.bytes)
		if size < need {
			size = need
		}
		if size < 1024 {
			size = 1024
		}
		a.bytes = make([]byte, size)
		a.nb = 0
	}
	buf := a.bytes[a.nb:]
	pos := 0
	prev := int64(0)
	for _, c := range colors {
		d := int64(c) - prev
		prev = int64(c)
		pos += binary.PutUvarint(buf[pos:], uint64((d<<1)^(d>>63)))
	}
	l.packed = a.bytes[a.nb : a.nb+pos : a.nb+pos]
	l.count = len(colors)
	a.nb += pos
	return l
}

// Reset recycles the arena for the next round. Previously handed-out
// payloads become invalid: the engine calls this only after a barrier
// guarantees every receiver of the round is done with them.
func (a *RoundArena) Reset() {
	a.nl = 0
	a.nb = 0
}

package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/group"
)

// colorBitsLimit caps the colour-occupation bitset at 16 MB; bigger
// (n, k) shapes fall back to a shared hash set. Every benchmark-scale
// family fits the bitset comfortably.
const colorBitsLimit = 1 << 27

// builderNode is one node's state inside a CSRBuilder: its degree so far
// and the index in peers/next of its most recently added half (-1 when
// none).
type builderNode struct{ deg, head int32 }

// CSRBuilder assembles a properly edge-coloured graph in CSR form; it is
// the only way to build a Graph. AddEdge and TryAddEdge check every
// invariant as the edge arrives, on flat structures: degrees in an array,
// colour occupation in a bitset (a hash set beyond 16 MB of bits), and
// adjacency in an intrusive linked list threaded through the accepted
// halves, walked from the lower-degree endpoint — degrees are bounded by
// Δ or k in every family, so HasEdge is effectively O(1) with array
// locality. The builder keeps one {deg, head} record per node and, per
// edge, its colour and its two halves; Build lays these out in one pass
// and checks nothing again. Constructing an n-node instance costs O(1)
// allocations amortised (TestGeneratorAllocsBounded).
//
// The builder is the engine behind every constructor in this package and
// the scenario families in internal/gen. A builder is not safe for
// concurrent use; Reset recycles all internal storage for the next build.
type CSRBuilder struct {
	n, k  int
	nodes []builderNode
	// Edge e {u, v} owns halves 2e (u's, so peers[2e] = v) and 2e+1 (v's,
	// so peers[2e+1] = u); next[i] is the previous half at the same node,
	// giving HasEdge a short flat walk instead of a hash lookup.
	peers []int32
	next  []int32
	// colors[e] is edge e's colour; ascending records that the edges
	// arrived in non-decreasing colour order, as every family adds them
	// class by class, so Build can scatter them without sorting.
	colors    []group.Color
	ascending bool
	// colorBits[(v*(k+1)+c)/64] bit (v*(k+1)+c)%64 marks colour c in use
	// at node v; colorUsed is the fallback for shapes where the bitset
	// would exceed colorBitsLimit.
	colorBits []uint64
	colorUsed map[uint64]struct{}
}

// NewCSRBuilder returns an empty builder for an n-node graph with colour
// palette 1…k.
func NewCSRBuilder(n, k int) *CSRBuilder {
	b := &CSRBuilder{}
	b.Reset(n, k)
	return b
}

// Reset re-targets the builder at an empty n-node, k-colour graph, keeping
// the internal storage of previous builds.
func (b *CSRBuilder) Reset(n, k int) {
	b.n, b.k = n, k
	if cap(b.nodes) < n {
		b.nodes = make([]builderNode, n)
	} else {
		b.nodes = b.nodes[:n]
	}
	for i := range b.nodes {
		b.nodes[i] = builderNode{deg: 0, head: -1}
	}
	b.peers = b.peers[:0]
	b.next = b.next[:0]
	b.colors = b.colors[:0]
	b.ascending = true
	if bits := n * (k + 1); bits <= colorBitsLimit {
		words := (bits + 63) / 64
		if cap(b.colorBits) < words {
			b.colorBits = make([]uint64, words)
		} else {
			b.colorBits = b.colorBits[:words]
			clear(b.colorBits)
		}
		b.colorUsed = nil
	} else {
		b.colorBits = nil
		if b.colorUsed == nil {
			b.colorUsed = make(map[uint64]struct{})
		} else {
			clear(b.colorUsed)
		}
	}
}

// Grow pre-reserves capacity for m edges, saving the doubling reallocations
// when the caller can estimate the final edge count.
func (b *CSRBuilder) Grow(m int) {
	b.colors = slices.Grow(b.colors, m)
	b.peers = slices.Grow(b.peers, 2*m)
	b.next = slices.Grow(b.next, 2*m)
}

// N returns the node count the builder was configured with.
func (b *CSRBuilder) N() int { return b.n }

// K returns the palette size.
func (b *CSRBuilder) K() int { return b.k }

// NumEdges returns the number of edges accepted so far.
func (b *CSRBuilder) NumEdges() int { return len(b.colors) }

// Degree returns the current degree of node v.
func (b *CSRBuilder) Degree(v int) int { return int(b.nodes[v].deg) }

// HasEdge reports whether the pair {u, v} is already joined (in any
// colour). It walks the adjacency list of the lower-degree endpoint.
func (b *CSRBuilder) HasEdge(u, v int) bool {
	if b.nodes[v].deg < b.nodes[u].deg {
		u, v = v, u
	}
	for i := b.nodes[u].head; i >= 0; i = b.next[i] {
		if b.peers[i] == int32(v) {
			return true
		}
	}
	return false
}

// ColorFree reports whether colour c is still unused at node v.
func (b *CSRBuilder) ColorFree(v int, c group.Color) bool {
	if b.colorBits != nil {
		bit := uint(v*(b.k+1) + int(c))
		return b.colorBits[bit/64]&(1<<(bit%64)) == 0
	}
	_, ok := b.colorUsed[uint64(v)<<32|uint64(uint32(c))]
	return !ok
}

// markColor records colour c as used at node v.
func (b *CSRBuilder) markColor(v int, c group.Color) {
	if b.colorBits != nil {
		bit := uint(v*(b.k+1) + int(c))
		b.colorBits[bit/64] |= 1 << (bit % 64)
		return
	}
	b.colorUsed[uint64(v)<<32|uint64(uint32(c))] = struct{}{}
}

// link records the accepted edge in the constraint structures.
func (b *CSRBuilder) link(u, v int, c group.Color) {
	i := int32(len(b.peers))
	b.peers = append(b.peers, int32(v), int32(u))
	b.next = append(b.next, b.nodes[u].head, b.nodes[v].head)
	b.nodes[u] = builderNode{deg: b.nodes[u].deg + 1, head: i}
	b.nodes[v] = builderNode{deg: b.nodes[v].deg + 1, head: i + 1}
	b.markColor(u, c)
	b.markColor(v, c)
	if m := len(b.colors); m > 0 && c < b.colors[m-1] {
		b.ascending = false
	}
	b.colors = append(b.colors, c)
}

// checkSlot checks every AddEdge constraint but simplicity: the endpoints
// are distinct nodes in range, and the colour lies in 1…k and is unused
// at both of them.
func (b *CSRBuilder) checkSlot(u, v int, c group.Color) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge {%d, %d} out of range [0, %d)", u, v, b.n)
	}
	if !c.Valid(b.k) {
		return fmt.Errorf("graph: colour %v outside 1…%d", c, b.k)
	}
	if !b.ColorFree(u, c) {
		return fmt.Errorf("graph: colour %v already used at node %d", c, u)
	}
	if !b.ColorFree(v, c) {
		return fmt.Errorf("graph: colour %v already used at node %d", c, v)
	}
	return nil
}

// AddEdge inserts the edge {u, v} with colour c. It enforces simplicity and
// the proper-colouring constraint: the endpoints must be distinct nodes in
// range, the colour must lie in 1…k and be unused at both endpoints, and
// the edge must not already exist.
func (b *CSRBuilder) AddEdge(u, v int, c group.Color) error {
	if err := b.checkSlot(u, v, c); err != nil {
		return err
	}
	if b.HasEdge(u, v) {
		return fmt.Errorf("graph: edge {%d, %d} already present", u, v)
	}
	b.link(u, v, c)
	return nil
}

// TryAddEdge is AddEdge with skip-on-conflict semantics: it reports whether
// the edge was accepted, without the error allocation. It accepts exactly
// the edges AddEdge accepts.
func (b *CSRBuilder) TryAddEdge(u, v int, c group.Color) bool {
	if u == v || u < 0 || u >= b.n || v < 0 || v >= b.n || !c.Valid(b.k) ||
		!b.ColorFree(u, c) || !b.ColorFree(v, c) || b.HasEdge(u, v) {
		return false
	}
	b.link(u, v, c)
	return true
}

// Build lays the accepted edges out as a graph in one pass. Degrees become
// offsets by prefix sum, which also records Δ. The edges are then visited
// in colour order (insertion order when they arrived that way, else an
// index sorted by colour), each writing both of its halves, their colours
// and their mate indices straight into place. Colours are distinct at
// every node, so each node's range comes out sorted by colour. Every
// invariant was checked as the edges arrived, so Build checks none again
// and cannot fail. The builder remains usable afterwards
// (Reset to start a new graph); the graph owns the freshly built arrays.
func (b *CSRBuilder) Build() *Graph {
	m := len(b.colors)
	// offsets[v+1] starts at v's first slot and is advanced past every
	// half placed there, so the scatter leaves it at v's end: the final
	// offsets, with no cursor array.
	offsets := make([]int, b.n+1)
	start, maxDeg := 0, 0
	for v, nd := range b.nodes {
		offsets[v+1] = start
		start += int(nd.deg)
		maxDeg = max(maxDeg, int(nd.deg))
	}
	halves := make([]Half, 2*m)
	colors := make([]group.Color, 2*m)
	mates := make([]int, 2*m)
	var order []int32 // nil: insertion order is colour order
	if !b.ascending {
		order = b.colorOrder()
	}
	for x := 0; x < m; x++ {
		e := x
		if order != nil {
			e = int(order[x])
		}
		u, v, c := int(b.peers[2*e+1]), int(b.peers[2*e]), b.colors[e]
		i, j := offsets[u+1], offsets[v+1]
		offsets[u+1], offsets[v+1] = i+1, j+1
		halves[i], halves[j] = Half{Peer: v, Color: c}, Half{Peer: u, Color: c}
		colors[i], colors[j] = c, c
		mates[i], mates[j] = j, i
	}
	return &Graph{
		n: b.n, k: b.k, maxDeg: maxDeg,
		flat: flatAdj{offsets: offsets, halves: halves, colors: colors, mates: mates},
	}
}

// colorOrder returns the edge indices sorted by colour. A counting sort
// takes O(m + k) time and a (k+1)-entry count array; when the palette
// dwarfs the edge count (a stored graph may have k = MaxInt32) a
// comparison sort of the m indices replaces it, so Build never allocates
// O(k).
func (b *CSRBuilder) colorOrder() []int32 {
	order := make([]int32, len(b.colors))
	if b.k > 16*len(b.colors) {
		for e := range order {
			order[e] = int32(e)
		}
		slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(b.colors[x], b.colors[y]) })
		return order
	}
	pos := make([]int32, b.k+1)
	for _, c := range b.colors {
		pos[c]++
	}
	var sum int32
	for c, count := range pos {
		pos[c], sum = sum, sum+count
	}
	for e, c := range b.colors {
		order[pos[c]] = int32(e)
		pos[c]++
	}
	return order
}

package graph

import (
	"fmt"
	"sort"

	"repro/internal/group"
)

// fromCSR wraps a flat CSR adjacency in a Graph: offsets has n+1 entries
// and halves[offsets[v]:offsets[v+1]] lists node v's incident halves in
// any order. fromCSR takes ownership of both slices, sorts each node's
// range by colour in place, and validates the proper-colouring and
// symmetry invariants in O(m log Δ). It does not check simplicity (no
// parallel edges): CSRBuilder enforces that at insertion time, and
// Validate checks it on demand.
func fromCSR(k int, offsets []int, halves []Half) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: CSR needs at least one offset")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 || offsets[n] != len(halves) {
		return nil, fmt.Errorf("graph: CSR offsets [%d…%d] do not span %d halves",
			offsets[0], offsets[n], len(halves))
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: CSR offsets not monotone at node %d", v)
		}
	}
	colors := make([]group.Color, len(halves))
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		sortHalvesByColor(halves[lo:hi])
		var prev group.Color
		for i := lo; i < hi; i++ {
			h := halves[i]
			if !h.Color.Valid(k) {
				return nil, fmt.Errorf("graph: node %d has colour %v outside 1…%d", v, h.Color, k)
			}
			if i > lo && h.Color == prev {
				return nil, fmt.Errorf("graph: colour %v used twice at node %d", h.Color, v)
			}
			if h.Peer == v {
				return nil, fmt.Errorf("graph: self-loop at %d", v)
			}
			if h.Peer < 0 || h.Peer >= n {
				return nil, fmt.Errorf("graph: node %d has peer %d out of range [0, %d)", v, h.Peer, n)
			}
			prev = h.Color
			colors[i] = h.Color
		}
	}
	mates := make([]int, len(halves))
	for v := 0; v < n; v++ {
		for i := offsets[v]; i < offsets[v+1]; i++ {
			h := halves[i]
			pc := colors[offsets[h.Peer]:offsets[h.Peer+1]]
			j := sort.Search(len(pc), func(x int) bool { return pc[x] >= h.Color })
			if j == len(pc) || pc[j] != h.Color || halves[offsets[h.Peer]+j].Peer != v {
				return nil, fmt.Errorf("graph: edge {%d, %d} colour %v not symmetric", v, h.Peer, h.Color)
			}
			mates[i] = offsets[h.Peer] + j
		}
	}
	return &Graph{
		n: n, k: k,
		flat: flatAdj{offsets: offsets, halves: halves, colors: colors, mates: mates},
	}, nil
}

// sortHalvesByColor sorts a node's halves by colour. Ranges are bounded by
// the degree, and a proper colouring makes the keys distinct, so a plain
// insertion sort beats sort.Slice (which allocates a closure and a reflect
// swapper per call — one per node adds up on million-node builds); large
// ranges fall back to the standard library.
func sortHalvesByColor(hs []Half) {
	if len(hs) > 64 {
		sort.Slice(hs, func(a, b int) bool { return hs[a].Color < hs[b].Color })
		return
	}
	for i := 1; i < len(hs); i++ {
		h := hs[i]
		j := i - 1
		for j >= 0 && hs[j].Color > h.Color {
			hs[j+1] = hs[j]
			j--
		}
		hs[j+1] = h
	}
}

// builderEdge is one accepted edge inside a CSRBuilder.
type builderEdge struct {
	u, v int32
	c    group.Color
}

// colorBitsLimit caps the colour-occupation bitset at 16 MB; bigger
// (n, k) shapes fall back to a shared hash set. Every benchmark-scale
// family fits the bitset comfortably.
const colorBitsLimit = 1 << 27

// CSRBuilder assembles a properly edge-coloured graph in CSR form; it is
// the only way to build a Graph. Edges are accumulated into a flat edge
// list, and Build performs the classic two-pass degree-count/fill into the
// final halves slab. The incremental constraint checks run on flat
// structures too: degrees in an array, colour occupation in a bitset (a
// hash set beyond 16 MB of bits), and adjacency in an intrusive linked
// list threaded through the accepted halves, walked from the lower-degree
// endpoint — degrees are bounded by Δ or k in every family, so HasEdge is
// effectively O(1) with array locality. Constructing an n-node instance
// costs O(1) allocations amortised (TestGeneratorAllocsBounded).
//
// The builder is the engine behind every constructor in this package and
// the scenario families in internal/gen. A builder is not safe for
// concurrent use; Reset recycles all internal storage for the next build.
type CSRBuilder struct {
	n, k  int
	degs  []int32
	edges []builderEdge
	// head[v] is the index in peers/next of v's most recently added half
	// (-1 when none): an intrusive adjacency list with two entries per
	// edge, giving HasEdge a short flat walk instead of a hash lookup.
	head  []int32
	peers []int32
	next  []int32
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
	if cap(b.degs) < n {
		b.degs = make([]int32, n)
		b.head = make([]int32, n)
	} else {
		b.degs = b.degs[:n]
		clear(b.degs)
		b.head = b.head[:n]
	}
	for i := range b.head {
		b.head[i] = -1
	}
	b.edges = b.edges[:0]
	b.peers = b.peers[:0]
	b.next = b.next[:0]
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
	if cap(b.edges)-len(b.edges) < m {
		edges := make([]builderEdge, len(b.edges), len(b.edges)+m)
		copy(edges, b.edges)
		b.edges = edges
	}
	if cap(b.peers)-len(b.peers) < 2*m {
		peers := make([]int32, len(b.peers), len(b.peers)+2*m)
		copy(peers, b.peers)
		b.peers = peers
		next := make([]int32, len(b.next), len(b.next)+2*m)
		copy(next, b.next)
		b.next = next
	}
}

// N returns the node count the builder was configured with.
func (b *CSRBuilder) N() int { return b.n }

// K returns the palette size.
func (b *CSRBuilder) K() int { return b.k }

// NumEdges returns the number of edges accepted so far.
func (b *CSRBuilder) NumEdges() int { return len(b.edges) }

// Degree returns the current degree of node v.
func (b *CSRBuilder) Degree(v int) int { return int(b.degs[v]) }

// HasEdge reports whether the pair {u, v} is already joined (in any
// colour). It walks the adjacency list of the lower-degree endpoint.
func (b *CSRBuilder) HasEdge(u, v int) bool {
	if b.degs[v] < b.degs[u] {
		u, v = v, u
	}
	for i := b.head[u]; i >= 0; i = b.next[i] {
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
	b.next = append(b.next, b.head[u], b.head[v])
	b.head[u] = i
	b.head[v] = i + 1
	b.markColor(u, c)
	b.markColor(v, c)
	b.degs[u]++
	b.degs[v]++
	b.edges = append(b.edges, builderEdge{u: int32(u), v: int32(v), c: c})
}

// AddEdge inserts the edge {u, v} with colour c. It enforces simplicity and
// the proper-colouring constraint: the endpoints must be distinct nodes in
// range, the colour must lie in 1…k and be unused at both endpoints, and
// the edge must not already exist.
func (b *CSRBuilder) AddEdge(u, v int, c group.Color) error {
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

// Build assembles the accumulated edges into a graph: degree counts become
// offsets by prefix sum, a single fill pass scatters both halves of every
// edge, and fromCSR sorts, validates and wraps the slab. The builder
// remains usable afterwards (Reset to start a new graph); the returned
// graph owns the freshly built arrays.
func (b *CSRBuilder) Build() (*Graph, error) {
	offsets := make([]int, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + int(b.degs[v])
	}
	halves := make([]Half, offsets[b.n])
	// cursor[v] is the next free slot in v's range; reusing the degree
	// array would destroy the builder's reusability, so keep a local copy.
	cursor := make([]int, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		halves[cursor[e.u]] = Half{Peer: int(e.v), Color: e.c}
		cursor[e.u]++
		halves[cursor[e.v]] = Half{Peer: int(e.u), Color: e.c}
		cursor[e.v]++
	}
	return fromCSR(b.k, offsets, halves)
}

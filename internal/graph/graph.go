package graph

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/colsys"
	"repro/internal/group"
	"repro/internal/mm"
)

// Half is one endpoint's description of an incident edge: the neighbour at
// the far end and the edge colour.
type Half struct {
	Peer  int
	Color group.Color
}

// Edge is an undirected coloured edge with U < V.
type Edge struct {
	U, V  int
	Color group.Color
}

// Graph is a finite simple graph with a proper k-edge-colouring, stored as
// one immutable CSR adjacency: a contiguous []Half plus node offsets, each
// node's halves sorted by colour, and a mates index pairing the two
// directed halves of every undirected edge. The only way to obtain a Graph
// is CSRBuilder.Build; nothing mutates it afterwards, so every method is
// safe for concurrent use and every slice it returns stays valid for the
// graph's lifetime.
type Graph struct {
	n, k   int
	maxDeg int // Δ, recorded by Build's offsets pass
	flat   flatAdj
	// edges caches the Edges() result. It is an atomic pointer so that
	// concurrent first calls stay race-free: two racing fills build
	// identical slices and either may win.
	edges atomic.Pointer[[]Edge]
}

// flatAdj is the CSR adjacency: halves[offsets[v]:offsets[v+1]] are node
// v's incident halves sorted by colour, colors is the parallel slice of
// just the colours, and mates[i] is the index of the reciprocal half of
// halves[i] (the same undirected edge seen from the peer).
type flatAdj struct {
	offsets []int
	halves  []Half
	colors  []group.Color
	mates   []int
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// K returns the size of the colour palette.
func (g *Graph) K() int { return g.k }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int {
	return g.flat.offsets[v+1] - g.flat.offsets[v]
}

// MaxDegree returns Δ(G) in O(1): Build records it.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Neighbor returns the node behind the edge of colour c at v, if any, by
// binary search on v's sorted colours.
func (g *Graph) Neighbor(v int, c group.Color) (int, bool) {
	lo, hi := g.flat.offsets[v], g.flat.offsets[v+1]
	pc := g.flat.colors[lo:hi]
	j := sort.Search(len(pc), func(x int) bool { return pc[x] >= c })
	if j < len(pc) && pc[j] == c {
		return g.flat.halves[lo+j].Peer, true
	}
	return 0, false
}

// Incident returns v's incident halves sorted by colour. The result is a
// subslice of the shared flat adjacency: it costs zero allocations and
// must not be modified.
func (g *Graph) Incident(v int) []Half {
	lo, hi := g.flat.offsets[v], g.flat.offsets[v+1]
	return g.flat.halves[lo:hi:hi]
}

// IncidentColors returns the sorted colours incident to v. Like Incident it
// returns a read-only subslice of the flat adjacency with zero allocation.
func (g *Graph) IncidentColors(v int) []group.Color {
	lo, hi := g.flat.offsets[v], g.flat.offsets[v+1]
	return g.flat.colors[lo:hi:hi]
}

// HalfRange returns the index range [lo, hi) of node v's halves inside
// Halves(); the engines use it to address per-directed-edge message slots.
func (g *Graph) HalfRange(v int) (lo, hi int) {
	return g.flat.offsets[v], g.flat.offsets[v+1]
}

// Halves returns the whole flat half slab: every directed edge (v → peer)
// exactly once, grouped by v and sorted by colour within each group. Must
// not be modified.
func (g *Graph) Halves() []Half {
	return g.flat.halves
}

// Mates returns, for every half index i in Halves(), the index of the
// reciprocal half (the same undirected edge seen from the peer). The
// engine's message slab is indexed like Halves(), and a node sending along
// half i writes into slot Mates()[i], the receiving half's own, so each
// node finds its incoming messages in its own half range. Must not be
// modified.
func (g *Graph) Mates() []int {
	return g.flat.mates
}

// Edges returns all edges sorted by (U, V). The slice is derived from the
// flat CSR adjacency on first use and cached, so repeated callers
// (recolouring, harness tables) pay the build only once. The result is
// shared: callers must not modify it.
func (g *Graph) Edges() []Edge {
	if p := g.edges.Load(); p != nil {
		return *p
	}
	out := make([]Edge, 0, len(g.flat.halves)/2)
	for u := 0; u < g.n; u++ {
		lo, hi := g.flat.offsets[u], g.flat.offsets[u+1]
		start := len(out)
		for i := lo; i < hi; i++ {
			if h := g.flat.halves[i]; u < h.Peer {
				out = append(out, Edge{U: u, V: h.Peer, Color: h.Color})
			}
		}
		// Halves are colour-sorted; re-sort this node's few edges by peer
		// so the global order is (U, V) as documented. Insertion sort: the
		// segments are degree-bounded and a sort.Slice closure per node
		// would dominate the allocation profile of large builds.
		seg := out[start:]
		for i := 1; i < len(seg); i++ {
			e := seg[i]
			j := i - 1
			for j >= 0 && seg[j].V > e.V {
				seg[j+1] = seg[j]
				j--
			}
			seg[j+1] = e
		}
	}
	g.edges.Store(&out)
	return out
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.flat.halves) / 2 }

// Validate checks the CSR arrays against each other alone: the offsets
// span the halves monotonically and give MaxDegree; each node's colours
// lie in 1…k and ascend strictly (a proper colouring) and colors mirrors
// them; every peer is another node, named once per node (simplicity); and
// mates is an involution pairing each half with the half at its peer that
// has the same colour and names its owner (symmetry). Build checks none
// of this, so Validate is the oracle the tests hold it to.
func (g *Graph) Validate() error {
	f := &g.flat
	if m := len(f.halves); len(f.offsets) != g.n+1 || f.offsets[0] != 0 || f.offsets[g.n] != m ||
		len(f.colors) != m || len(f.mates) != m {
		return fmt.Errorf("graph: %d offsets, %d colours and %d mates do not span %d halves over %d nodes",
			len(f.offsets), len(f.colors), len(f.mates), m, g.n)
	}
	maxDeg := 0
	for v := 0; v < g.n; v++ {
		if f.offsets[v+1] < f.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at node %d", v)
		}
		maxDeg = max(maxDeg, g.Degree(v))
	}
	if maxDeg != g.maxDeg {
		return fmt.Errorf("graph: MaxDegree %d, offsets give %d", g.maxDeg, maxDeg)
	}
	named := make([]int, g.n) // named[p] == u+1 once u's range has named p
	for u := 0; u < g.n; u++ {
		lo, hi := f.offsets[u], f.offsets[u+1]
		for i := lo; i < hi; i++ {
			h := f.halves[i]
			if !h.Color.Valid(g.k) {
				return fmt.Errorf("graph: node %d has colour %v outside palette", u, h.Color)
			}
			if i > lo && h.Color <= f.halves[i-1].Color {
				return fmt.Errorf("graph: colours at node %d not strictly ascending at %v", u, h.Color)
			}
			if f.colors[i] != h.Color {
				return fmt.Errorf("graph: colors[%d] = %v, half has %v", i, f.colors[i], h.Color)
			}
			if h.Peer < 0 || h.Peer >= g.n || h.Peer == u {
				return fmt.Errorf("graph: node %d has peer %d (nodes 0…%d, no self-loops)", u, h.Peer, g.n-1)
			}
			if named[h.Peer] == u+1 {
				return fmt.Errorf("graph: parallel edges between %d and %d", u, h.Peer)
			}
			named[h.Peer] = u + 1
			if j := f.mates[i]; j < f.offsets[h.Peer] || j >= f.offsets[h.Peer+1] || f.mates[j] != i ||
				f.halves[j] != (Half{Peer: u, Color: h.Color}) {
				return fmt.Errorf("graph: edge {%d, %d} colour %v: half %d and mate %d do not pair up", u, h.Peer, h.Color, i, j)
			}
		}
	}
	return nil
}

// View returns the radius-h view of node v: the ball of radius h in the
// universal cover of g rooted at v, encoded as a finite colour system. In a
// properly edge-coloured graph a non-backtracking walk never repeats a
// colour twice in a row, so walks correspond exactly to reduced words.
func (g *Graph) View(v, h int) (*colsys.Finite, error) {
	if v < 0 || v >= g.n {
		return nil, fmt.Errorf("graph: view centre %d out of range", v)
	}
	type state struct {
		word group.Word
		node int
	}
	var words []group.Word
	frontier := []state{{word: group.Identity(), node: v}}
	for depth := 0; depth < h; depth++ {
		var next []state
		for _, s := range frontier {
			for _, half := range g.Incident(s.node) {
				if half.Color == s.word.Tail() {
					continue // backtracking: same edge colour returns along the same edge
				}
				w := s.word.Append(half.Color)
				words = append(words, w)
				next = append(next, state{word: w, node: half.Peer})
			}
		}
		frontier = next
	}
	return colsys.NewFinite(g.k, words)
}

// NodeAt follows the reduced word w from node v and returns the node
// reached, or false if the walk leaves the graph. It is the covering map
// complementing View.
func (g *Graph) NodeAt(v int, w group.Word) (int, bool) {
	cur := v
	for i := 0; i < w.Norm(); i++ {
		peer, ok := g.Neighbor(cur, w.At(i))
		if !ok {
			return 0, false
		}
		cur = peer
	}
	return cur, true
}

// --- Matching validation ----------------------------------------------------

// MatchingError reports a violation of the finite-graph analogue of
// (M1)–(M3) at a specific node.
type MatchingError struct {
	Property mm.Property
	Node     int
	Output   mm.Output
	Detail   string
}

// Error implements the error interface.
func (e *MatchingError) Error() string {
	return fmt.Sprintf("graph: property %s violated at node %d (output %v): %s",
		e.Property, e.Node, e.Output, e.Detail)
}

// CheckMatching verifies the finite-graph analogue of (M1)–(M3) for a full
// output assignment: outs[v] is ⊥ or an incident colour (M1), matched
// outputs are mutual (M2), and no two adjacent nodes are both unmatched
// (M3 / maximality).
func CheckMatching(g *Graph, outs []mm.Output) error {
	if len(outs) != g.N() {
		return fmt.Errorf("graph: %d outputs for %d nodes", len(outs), g.N())
	}
	for v, out := range outs {
		if !out.IsMatched() {
			for _, half := range g.Incident(v) {
				if !outs[half.Peer].IsMatched() {
					return &MatchingError{
						Property: mm.M3, Node: v, Output: out,
						Detail: fmt.Sprintf("nodes %d and %d are adjacent (colour %v) and both unmatched",
							v, half.Peer, half.Color),
					}
				}
			}
			continue
		}
		peer, ok := g.Neighbor(v, out.Color)
		if !ok {
			return &MatchingError{
				Property: mm.M1, Node: v, Output: out,
				Detail: fmt.Sprintf("node %d outputs colour %v with no such incident edge", v, out.Color),
			}
		}
		if outs[peer] != out {
			return &MatchingError{
				Property: mm.M2, Node: v, Output: out,
				Detail: fmt.Sprintf("node %d outputs %v but neighbour %d outputs %v",
					v, out, peer, outs[peer]),
			}
		}
	}
	return nil
}

// MatchingEdges extracts the matched edge set from an output assignment.
func MatchingEdges(g *Graph, outs []mm.Output) []Edge {
	var edges []Edge
	for v, out := range outs {
		if !out.IsMatched() {
			continue
		}
		peer, ok := g.Neighbor(v, out.Color)
		if !ok || v > peer || outs[peer] != out {
			continue
		}
		edges = append(edges, Edge{U: v, V: peer, Color: out.Color})
	}
	return edges
}

// SequentialGreedy runs the global greedy process (§1.2) on g: colour
// classes in the given order (nil = 1…k), matching each edge whose
// endpoints are both free. It is the reference implementation for the
// distributed variants.
//
// It runs on the CSR path: one pass over Halves()/Mates() buckets the
// undirected edges by colour, then each class is scanned once — O(m + k)
// total, instead of rebuilding and re-sorting the edge list per class.
// Within a class the scan order is irrelevant: a colour class of a proper
// colouring is a matching, so its edges' decisions are independent.
func SequentialGreedy(g *Graph, order []group.Color) []mm.Output {
	if order == nil {
		order = make([]group.Color, g.k)
		for i := range order {
			order[i] = group.Color(i + 1)
		}
	}
	halves := g.Halves()
	mates := g.Mates()
	outs := make([]mm.Output, g.N())

	// Bucket by colour: count, prefix-sum, fill (counting sort on edges).
	counts := make([]int, g.k+2)
	for i, h := range halves {
		if i < mates[i] { // each undirected edge once
			counts[h.Color+1]++
		}
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	starts := counts // starts[c] … starts[c+1] is colour c's bucket
	type pair struct{ u, v int }
	edges := make([]pair, len(halves)/2)
	fill := make([]int, g.k+1)
	for v := 0; v < g.n; v++ {
		lo, hi := g.flat.offsets[v], g.flat.offsets[v+1]
		for i := lo; i < hi; i++ {
			if i < mates[i] {
				c := halves[i].Color
				p := starts[c] + fill[c]
				fill[c]++
				edges[p] = pair{u: v, v: halves[i].Peer}
			}
		}
	}

	for _, c := range order {
		if c < 1 || int(c) > g.k {
			continue // no such colour class: nothing to match
		}
		for p := starts[c]; p < starts[c+1]; p++ {
			e := edges[p]
			if !outs[e.u].IsMatched() && !outs[e.v].IsMatched() {
				outs[e.u] = mm.Matched(c)
				outs[e.v] = mm.Matched(c)
			}
		}
	}
	return outs
}

// --- Generators -------------------------------------------------------------

// PathGraph builds the path v0 − v1 − … − v_len with the given edge
// colours (len(colors) edges, len(colors)+1 nodes).
func PathGraph(k int, colors []group.Color) (*Graph, error) {
	b := NewCSRBuilder(len(colors)+1, k)
	for i, c := range colors {
		if err := b.AddEdge(i, i+1, c); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// CycleGraph builds a cycle with the given edge colours; colors[i] joins
// node i and node i+1 mod n.
func CycleGraph(k int, colors []group.Color) (*Graph, error) {
	n := len(colors)
	if n < 3 {
		return nil, fmt.Errorf("graph: cycle needs ≥ 3 edges, got %d", n)
	}
	b := NewCSRBuilder(n, k)
	for i, c := range colors {
		if err := b.AddEdge(i, (i+1)%n, c); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// WorstCase is the §1.2 lower-bound example for the greedy algorithm: two
// path components whose distinguished endpoints U and V have identical
// radius-(k−1) views, yet greedy matches exactly one of them.
type WorstCase struct {
	G *Graph
	U int // endpoint of the k-edge path (colours k, k−1, …, 1)
	V int // endpoint of the (k−1)-edge path (colours k, k−1, …, 2)
}

// NewWorstCase builds the §1.2 instance for a given k ≥ 2.
func NewWorstCase(k int) (*WorstCase, error) {
	if k < 2 {
		return nil, fmt.Errorf("graph: worst case needs k ≥ 2, got %d", k)
	}
	// Component 1: u = node 0, edges k, k−1, …, 1 (k+1 nodes).
	// Component 2: v = node k+1, edges k, k−1, …, 2 (k nodes).
	b := NewCSRBuilder(2*k+1, k)
	for i := 0; i < k; i++ {
		if err := b.AddEdge(i, i+1, group.Color(k-i)); err != nil {
			return nil, err
		}
	}
	base := k + 1
	for i := 0; i < k-1; i++ {
		if err := b.AddEdge(base+i, base+i+1, group.Color(k-i)); err != nil {
			return nil, err
		}
	}
	return &WorstCase{G: b.Build(), U: 0, V: base}, nil
}

// RandomMatchingUnion builds a random properly k-edge-coloured graph on n
// nodes as a union of k partial random matchings: for each colour, nodes
// are shuffled and paired with probability density. The result has maximum
// degree ≤ k and is always properly coloured. A given (n, k, density, seed)
// always names the same graph (TestConstructorGolden pins its CSR arrays).
func RandomMatchingUnion(n, k int, density float64, rng *rand.Rand) *Graph {
	b := NewCSRBuilder(n, k)
	randomMatchingUnionInto(b, n, k, density, rng)
	return b.Build()
}

// randomMatchingUnionInto streams the matching-union edges into an existing
// builder; internal/gen reuses it for the double-cover scenario.
func randomMatchingUnionInto(b *CSRBuilder, n, k int, density float64, rng *rand.Rand) {
	b.Grow(int(density * float64(k) * float64(n) / 2))
	perm := make([]int, n)
	for c := group.Color(1); int(c) <= k; c++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i+1 < n; i += 2 {
			if rng.Float64() > density {
				continue
			}
			// Parallel edges are skipped (the colour is still free at both
			// endpoints, but the pair may already be joined).
			b.TryAddEdge(perm[i], perm[i+1], c)
		}
	}
}

// RandomRegular builds a random k-regular properly k-edge-coloured graph on
// n nodes (n even): every colour class is a perfect matching, drawn as a
// random permutation paired off two by two (the permutation-union
// construction), so the graph is simple.
//
// Class c collides with the c−1 classes before it about (c−1)/2 times per
// shuffle whatever n is, so a whole reshuffle succeeds with probability
// only about e^{−(c−1)/2}. After 50 reshuffles fail, the last permutation
// is repaired pair by pair instead (repairPairs). A shape with no simple
// k-regular graph (k ≥ n), or earlier classes that leave a later one no
// perfect matching (possible only at small n), still fails once the
// repair's tries run out. Each pair is checked against HasEdge once, by
// the shuffle loop or the repair, and then linked with only the range and
// colour checks; the classes arrive in colour order, so Build lays them
// out without a sort.
func RandomRegular(n, k int, rng *rand.Rand) (*Graph, error) {
	if n%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular needs even n, got %d", n)
	}
	b := NewCSRBuilder(n, k)
	b.Grow(n * k / 2)
	perm := make([]int, n)
	for c := group.Color(1); int(c) <= k; c++ {
		placed := false
		for attempt := 0; attempt < 50 && !placed; attempt++ {
			for i := range perm {
				perm[i] = i
			}
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			placed = true
			for i := 0; i+1 < n; i += 2 {
				if b.HasEdge(perm[i], perm[i+1]) {
					placed = false
					break
				}
			}
		}
		if !placed && !repairPairs(b, perm, rng) {
			return nil, fmt.Errorf("graph: could not place colour class %v without parallel edges", c)
		}
		// Every pair was just checked against HasEdge; link it without
		// walking the adjacency lists a second time.
		for i := 0; i+1 < n; i += 2 {
			if err := b.checkSlot(perm[i], perm[i+1], c); err != nil {
				return nil, err
			}
			b.link(perm[i], perm[i+1], c)
		}
	}
	return b.Build(), nil
}

// repairPairs makes every pair (perm[2i], perm[2i+1]) a non-edge of b by
// swapping second partners with a pair drawn from rng, and reports
// whether it succeeded within its bounded number of tries. A swap is taken
// only if both new pairs are non-edges, so every pair already visited
// stays repaired.
func repairPairs(b *CSRBuilder, perm []int, rng *rand.Rand) bool {
	pairs := len(perm) / 2
	tries := 16 * len(perm)
	for i := 0; i < pairs; i++ {
		u, v := perm[2*i], perm[2*i+1]
		for b.HasEdge(u, v) {
			if tries == 0 {
				return false
			}
			tries--
			j := rng.Intn(pairs)
			x, y := perm[2*j], perm[2*j+1]
			if j == i || b.HasEdge(u, y) || b.HasEdge(x, v) {
				continue
			}
			perm[2*i+1], perm[2*j+1] = y, v
			v = y
		}
	}
	return true
}

// FromSystem materialises the window Γ_k(V)[radius] of a colour system as a
// finite graph. It returns the graph together with the node index of each
// word (keyed by group.Word.Key). Boundary nodes have truncated degrees.
func FromSystem(v colsys.System, radius int) (*Graph, map[string]int, error) {
	words := colsys.Nodes(v, radius)
	index := make(map[string]int, len(words))
	for i, w := range words {
		index[w.Key()] = i
	}
	b := NewCSRBuilder(len(words), v.K())
	for _, w := range words {
		if w.IsIdentity() {
			continue
		}
		if err := b.AddEdge(index[w.Pred().Key()], index[w.Key()], w.Tail()); err != nil {
			return nil, nil, err
		}
	}
	return b.Build(), index, nil
}

// Figure1 builds a 16-node, 4-regular, properly 4-edge-coloured instance
// standing in for the paper's Figure 1 example (the exact drawing cannot be
// recovered from the text). It is the 4-dimensional hypercube Q4 with
// colour c joining i and i XOR 2^(c−1): every colour class is a perfect
// matching, so greedy matches everything in the first round of its colour.
func Figure1() (*Graph, error) {
	b := NewCSRBuilder(16, 4)
	for c := group.Color(1); c <= 4; c++ {
		bit := 1 << (int(c) - 1)
		for i := 0; i < 16; i++ {
			j := i ^ bit
			if i < j {
				if err := b.AddEdge(i, j, c); err != nil {
					return nil, fmt.Errorf("graph: figure 1: %w", err)
				}
			}
		}
	}
	return b.Build(), nil
}

// RandomBoundedDegree builds a random properly coloured graph with maximum
// degree ≤ delta and colours drawn uniformly from the full palette 1…k:
// the k ≫ Δ regime of §1.3. It attempts `attempts` random edges, skipping
// any that would violate the degree bound or the proper colouring.
func RandomBoundedDegree(n, k, delta, attempts int, rng *rand.Rand) *Graph {
	b := NewCSRBuilder(n, k)
	if hint := n * delta / 2; hint < attempts {
		b.Grow(hint)
	} else {
		b.Grow(attempts)
	}
	for i := 0; i < attempts; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || b.Degree(u) >= delta || b.Degree(v) >= delta {
			continue
		}
		c := group.Color(1 + rng.Intn(k))
		// TryAddEdge enforces the remaining constraints; collisions are skipped.
		b.TryAddEdge(u, v, c)
	}
	return b.Build()
}

// DOT writes the graph in Graphviz format. Edge labels are colours; the
// optional label function names nodes (nil = numeric ids) and highlight
// marks a set of edges (e.g. a matching) in bold.
func (g *Graph) DOT(w io.Writer, label func(v int) string, highlight []Edge) error {
	marked := make(map[Edge]bool, len(highlight))
	for _, e := range highlight {
		marked[Edge{U: e.U, V: e.V, Color: e.Color}] = true
	}
	if _, err := fmt.Fprintln(w, "graph G {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  node [shape=circle];")
	for v := 0; v < g.N(); v++ {
		name := strconv.Itoa(v)
		if label != nil {
			name = label(v)
		}
		fmt.Fprintf(w, "  n%d [label=%q];\n", v, name)
	}
	for _, e := range g.Edges() {
		style := ""
		if marked[e] {
			style = ", style=bold, penwidth=3"
		}
		fmt.Fprintf(w, "  n%d -- n%d [label=\"%d\"%s];\n", e.U, e.V, int(e.Color), style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

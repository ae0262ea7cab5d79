package serve

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/sweep"
)

// DefaultMaxGraphs bounds the submitted-graph store when Options.MaxGraphs
// is non-positive.
const DefaultMaxGraphs = 256

// maxGraphNodes caps a submitted graph's n. Put allocates O(n) before it
// reads an edge, so n must be bounded by what a body can carry: an edge
// takes at least 8 bytes of JSON ("[u,v,c],"), so a body within
// maxGraphBody touches at most maxGraphBody/4 nodes, and any n beyond that
// could only add isolated nodes.
const maxGraphNodes = maxGraphBody / 4

// maxGraphColors caps a submitted graph's k. With n ≤ maxGraphNodes (2^24)
// the builder's colour-occupation index n·(k+1) stays below 2^56, far from
// overflow, and every colour fits the builder's 32-bit colour key.
const maxGraphColors = math.MaxInt32

// StoredGraph is one client-submitted instance: its content address, its
// observable shape (what sweep rows record), and the built CSR instance.
type StoredGraph struct {
	ID        string `json:"id"`
	N         int    `json:"n"`
	K         int    `json:"k"`
	Edges     int    `json:"edges"`
	MaxDegree int    `json:"max_degree"`

	inst *gen.Instance
}

// Params returns the identity parameters sweep rows carry for this graph.
// ScanRows requires non-empty params on every row, and (n, k) is the shape
// the aggregate table and bounds checker key on.
func (sg *StoredGraph) Params() gen.Params {
	return gen.Params{"n": float64(sg.N), "k": float64(sg.K)}
}

// GraphStore holds client-submitted graphs keyed by gen.EdgeListID. It is
// an InstanceProvider for the gen.GraphIDPrefix address space: chained in
// front of the scenario registry it makes submitted graphs sweepable by
// the unchanged sweep driver. Safe for concurrent use; stored instances
// are shared read-only, the contract CSR-built graphs already satisfy.
type GraphStore struct {
	limit int

	mu     sync.RWMutex
	graphs map[string]*StoredGraph
}

// NewGraphStore returns an empty store holding at most limit graphs
// (DefaultMaxGraphs when limit ≤ 0). The cap is a hard bound, not an LRU:
// submitted graphs are client state, and silently evicting one would turn
// a client's later sweep into a 404 it cannot explain.
func NewGraphStore(limit int) *GraphStore {
	if limit <= 0 {
		limit = DefaultMaxGraphs
	}
	return &GraphStore{limit: limit, graphs: map[string]*StoredGraph{}}
}

// Put validates and stores an edge list, returning its record and whether
// this call created it (false = the same graph was already stored; content
// addressing makes resubmission idempotent). The shape is checked first,
// before anything is allocated: n in 1…maxGraphNodes, k in
// 1…maxGraphColors. The edges are validated by CSRBuilder: simple graph,
// endpoints in range, colours 1…k properly colouring.
func (st *GraphStore) Put(n, k int, edges [][3]int) (*StoredGraph, bool, error) {
	if n < 1 || n > maxGraphNodes {
		return nil, false, fmt.Errorf("graph field n = %d outside 1…%d", n, maxGraphNodes)
	}
	if k < 1 || k > maxGraphColors {
		return nil, false, fmt.Errorf("graph field k = %d outside 1…%d", k, maxGraphColors)
	}
	id := gen.EdgeListID(n, k, edges)
	st.mu.RLock()
	sg, ok := st.graphs[id]
	st.mu.RUnlock()
	if ok {
		return sg, false, nil
	}

	// Build outside the lock: construction is the expensive part, and a
	// losing racer's duplicate build is harmless (identical content).
	b := graph.NewCSRBuilder(n, k)
	b.Grow(len(edges))
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], group.Color(e[2])); err != nil {
			return nil, false, err
		}
	}
	g := b.Build()
	sg = &StoredGraph{
		ID:        id,
		N:         g.N(),
		K:         g.K(),
		Edges:     g.NumEdges(),
		MaxDegree: g.MaxDegree(),
		inst:      &gen.Instance{G: g},
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.graphs[id]; ok {
		return cur, false, nil
	}
	if len(st.graphs) >= st.limit {
		return nil, false, fmt.Errorf("graph store full (%d graphs); raise -max-graphs or restart", st.limit)
	}
	st.graphs[id] = sg
	return sg, true, nil
}

// Get returns the stored graph addressed by id.
func (st *GraphStore) Get(id string) (*StoredGraph, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sg, ok := st.graphs[id]
	return sg, ok
}

// Len returns the number of stored graphs.
func (st *GraphStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.graphs)
}

// Instance implements sweep.InstanceProvider. Scenario names outside the
// graph-ID address space are not ours (ErrUnknownInstance lets the chain
// fall through to the registry); a graph-ID we do not hold is a hard error
// — the store is authoritative for its prefix, so falling through could
// only produce a worse message.
func (st *GraphStore) Instance(spec sweep.InstanceSpec) (*gen.Instance, error) {
	if !gen.IsGraphID(spec.Scenario) {
		return nil, fmt.Errorf("%w: %q is not a stored-graph address", sweep.ErrUnknownInstance, spec.Scenario)
	}
	sg, ok := st.Get(spec.Scenario)
	if !ok {
		return nil, fmt.Errorf("graph %s is not in the store (submit it via POST /v1/graphs first)", spec.Scenario)
	}
	return sg.inst, nil
}

package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/group"
)

// colorOf converts a raw edge-list colour to the graph package's type.
func colorOf(c int) group.Color { return group.Color(c) }

// testGraphInstance hand-builds a tiny properly-coloured instance through
// the CSRBuilder — the same path mmserve uses for client-submitted edge
// lists — and returns it with its edge list and content address.
func testGraphInstance(t *testing.T) (*gen.Instance, string, [][3]int) {
	t.Helper()
	edges := [][3]int{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 0, 2}}
	b := graph.NewCSRBuilder(4, 2)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], colorOf(e[2])); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g := b.Build()
	return &gen.Instance{G: g}, gen.EdgeListID(4, 2, edges), edges
}

// storeProvider is a minimal submitted-graph store: one instance behind its
// content address, everything else unknown.
type storeProvider map[string]*gen.Instance

func (s storeProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	if inst, ok := s[spec.Scenario]; ok {
		return inst, nil
	}
	return nil, fmt.Errorf("%w: %q not in store", ErrUnknownInstance, spec.Scenario)
}

// recordingProvider captures every spec ID crossing the seam.
type recordingProvider struct {
	inner InstanceProvider
	mu    sync.Mutex
	ids   []string
}

func (r *recordingProvider) Instance(spec InstanceSpec) (*gen.Instance, error) {
	r.mu.Lock()
	r.ids = append(r.ids, spec.ID())
	r.mu.Unlock()
	return r.inner.Instance(spec)
}

// TestRegistryProviderMatchesDirectBuild pins that routing the registry
// through the seam changes nothing: a sweep with an explicit
// RegistryProvider emits bytes identical to the default path.
func TestRegistryProviderMatchesDirectBuild(t *testing.T) {
	cfg := Config{Grids: []string{"path:n=16..64,k=2"}, Algos: []string{"greedy", "proposal"}, Seed: 5, CheckBounds: true}
	var direct, seamed bytes.Buffer
	if _, err := Stream(context.Background(), cfg, NewJSONLSink(&direct)); err != nil {
		t.Fatalf("direct: %v", err)
	}
	cfg.Provider = RegistryProvider{}
	if _, err := Stream(context.Background(), cfg, NewJSONLSink(&seamed)); err != nil {
		t.Fatalf("seamed: %v", err)
	}
	if !bytes.Equal(direct.Bytes(), seamed.Bytes()) {
		t.Fatal("explicit RegistryProvider changed the sweep's bytes")
	}
}

// TestFixedInstanceSweep runs the whole sweep/contract/check machinery on a
// hand-built (client-submitted-shaped) instance through the provider seam:
// rows carry the content address as their scenario, labels-needing
// algorithms skip cleanly, and the output round-trips through the resume
// scanner like any other sweep artefact.
func TestFixedInstanceSweep(t *testing.T) {
	inst, id, _ := testGraphInstance(t)
	cfg := Config{
		Instances:   []InstanceRef{{ID: id, Params: gen.Params{"n": 4, "k": 2}}},
		Algos:       []string{"greedy", "bipartite"},
		Reps:        2,
		Seed:        1,
		CheckBounds: true,
		Provider:    Providers(storeProvider{id: inst}, RegistryProvider{}),
	}
	var buf bytes.Buffer
	stats, err := Stream(context.Background(), cfg, NewJSONLSink(&buf))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if stats.Emitted != 4 { // 2 algos × 2 reps
		t.Fatalf("emitted %d rows, want 4", stats.Emitted)
	}

	state, err := ReadCompleted(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCompleted on fixed-instance output: %v", err)
	}
	plan, err := CellPlan(cfg)
	if err != nil {
		t.Fatalf("CellPlan: %v", err)
	}
	for _, c := range plan {
		if !state.Completed[c.ID] {
			t.Fatalf("cell %s missing from scanned output", c.ID)
		}
		if got := state.Seeds[c.ID]; got != c.Seed {
			t.Fatalf("cell %s recorded seed %d, want %d", c.ID, got, c.Seed)
		}
		if !strings.HasPrefix(c.ID, id+":") {
			t.Fatalf("cell ID %q does not carry the content address %q", c.ID, id)
		}
	}

	// bipartite needs labels the raw graph does not have: skipped, not failed.
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var skips, matched int
	for _, r := range rep.Results {
		if r.Algo == "bipartite" {
			if r.Skip == "" {
				t.Fatalf("bipartite on an unlabelled submitted graph should skip, got %+v", r)
			}
			skips++
		}
		if r.Algo == "greedy" {
			matched += r.Matched
			if len(r.Violations) > 0 {
				t.Fatalf("submitted 4-cycle violates contracts: %v", r.Violations)
			}
		}
	}
	if skips != 2 {
		t.Fatalf("want 2 bipartite skips, got %d", skips)
	}
	if matched != 4 { // a 4-cycle has a perfect matching: 2 edges per rep
		t.Fatalf("greedy matched %d edges across 2 reps, want 4", matched)
	}
}

// TestCellIDsAgreeWithCacheKeys pins the satellite contract: the content
// address the provider (and hence the cache) sees for a cell reassembles
// exactly from that cell's JSONL row fields — scenario, params, seed — so a cache key derived from a row and one derived from a
// request name the same blob.
func TestCellIDsAgreeWithCacheKeys(t *testing.T) {
	inst, id, _ := testGraphInstance(t)
	rec := &recordingProvider{inner: Providers(storeProvider{id: inst}, RegistryProvider{})}
	cfg := Config{
		Grids:     []string{"regular:n=32,k=3"},
		Instances: []InstanceRef{{ID: id, Params: gen.Params{"n": 4, "k": 2}}},
		Algos:     []string{"greedy"},
		Seed:      9,
		Provider:  rec,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	seen := map[string]bool{}
	for _, sid := range rec.ids {
		seen[sid] = true
	}
	for _, r := range rep.Results {
		_, params, err := gen.Parse(r.Scenario + ":" + r.Params)
		if r.Scenario == id {
			// Submitted addresses are not registry names; parse the
			// params half alone.
			_, params, _, err = gen.ParseInstanceID(r.Scenario + ":" + r.Params + "@0")
		}
		if err != nil {
			t.Fatalf("row %s: %v", r.ID(), err)
		}
		key := InstanceSpec{Scenario: r.Scenario, Params: params, Seed: r.Seed}.ID()
		if !seen[key] {
			t.Fatalf("row %s reassembles to key %q, which the provider never saw (saw %v)", r.ID(), key, rec.ids)
		}
	}
}

// TestProvidersChain pins the chain semantics: ErrUnknownInstance falls
// through, the first real answer wins, hard errors stop the chain.
func TestProvidersChain(t *testing.T) {
	inst, id, _ := testGraphInstance(t)
	chain := Providers(storeProvider{id: inst}, RegistryProvider{})

	if got, err := chain.Instance(InstanceSpec{Scenario: id, Params: gen.Params{"n": 4, "k": 2}}); err != nil || got != inst {
		t.Fatalf("store-backed lookup: %v, %v", got, err)
	}
	if _, err := chain.Instance(InstanceSpec{Scenario: "regular", Params: gen.Params{"n": 16, "k": 3}, Seed: 1}); err != nil {
		t.Fatalf("registry fallthrough: %v", err)
	}
	if _, err := chain.Instance(InstanceSpec{Scenario: "no-such-family", Params: gen.Params{}}); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("want ErrUnknownInstance past the whole chain, got %v", err)
	}
	// A hard error (bad params on a known family) must not fall through to
	// a misleading "unknown" answer.
	if _, err := chain.Instance(InstanceSpec{Scenario: "regular", Params: gen.Params{"bogus": 1}}); err == nil || errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("hard error lost in the chain: %v", err)
	}
}

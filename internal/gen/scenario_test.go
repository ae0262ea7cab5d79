package gen_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// sameInstance asserts two built instances are byte-identical: same CSR
// half slab, same per-node ranges, same labels.
func sameInstance(t *testing.T, name string, a, b *gen.Instance) {
	t.Helper()
	if a.G.N() != b.G.N() || a.G.K() != b.G.K() {
		t.Fatalf("%s: shapes differ", name)
	}
	if !reflect.DeepEqual(a.G.Halves(), b.G.Halves()) {
		t.Fatalf("%s: half slabs differ", name)
	}
	if !reflect.DeepEqual(a.G.Mates(), b.G.Mates()) {
		t.Fatalf("%s: mates differ", name)
	}
	for v := 0; v < a.G.N(); v++ {
		alo, ahi := a.G.HalfRange(v)
		blo, bhi := b.G.HalfRange(v)
		if alo != blo || ahi != bhi {
			t.Fatalf("%s: node %d range (%d,%d) vs (%d,%d)", name, v, alo, ahi, blo, bhi)
		}
	}
	if !reflect.DeepEqual(a.Labels, b.Labels) {
		t.Fatalf("%s: labels differ", name)
	}
}

// TestScenarioDeterminism builds every registered scenario twice per seed
// and demands byte-identical CSR arrays — the reproducibility contract of
// the registry. A different seed must change the random families.
func TestScenarioDeterminism(t *testing.T) {
	for _, s := range gen.All() {
		for seed := int64(1); seed <= 3; seed++ {
			a, err := s.Build(seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			b, err := s.Build(seed, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			sameInstance(t, s.Name, a, b)
			if err := a.G.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid instance: %v", s.Name, seed, err)
			}
		}
		// Random families must react to the seed (deterministic ones are
		// identical by design, so only check where an rng is consumed).
		switch s.Name {
		case "matching-union", "bounded-degree", "regular", "tree", "double-cover":
			a, err := s.Build(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Build(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.G.Halves(), b.G.Halves()) {
				t.Errorf("%s: seeds 1 and 2 built identical instances", s.Name)
			}
		}
	}
}

// TestScenarioStreamsAreIndependent checks two scenarios with identical
// parameters and seed draw from different rng streams.
func TestScenarioStreamsAreIndependent(t *testing.T) {
	mu, _, err := gen.Parse("matching-union:n=128,k=4,density=1")
	if err != nil {
		t.Fatal(err)
	}
	re, _, err := gen.Parse("regular:n=128,k=4")
	if err != nil {
		t.Fatal(err)
	}
	a, err := mu.Build(9, gen.Params{"n": 128, "k": 4, "density": 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := re.Build(9, gen.Params{"n": 128, "k": 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both are unions of 4 permutation matchings at density 1; identical
	// streams would pair the first colour class identically.
	if reflect.DeepEqual(a.G.Halves(), b.G.Halves()) {
		t.Error("matching-union and regular consumed the same stream")
	}
}

// TestParse covers the spec syntax: overrides, defaults, unknown names and
// parameters, malformed pairs.
func TestParse(t *testing.T) {
	s, overrides, err := gen.Parse("matching-union:n=64,density=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "matching-union" || overrides.Int("n") != 64 || overrides.Float("density") != 0.5 {
		t.Fatalf("parsed %s %v", s.Name, overrides)
	}
	inst, _, err := gen.BuildSpec("matching-union:n=64", 3)
	if err != nil {
		t.Fatal(err)
	}
	if inst.G.N() != 64 || inst.G.K() != 6 {
		t.Fatalf("override/default mix wrong: n=%d k=%d", inst.G.N(), inst.G.K())
	}
	if _, _, err := gen.Parse("no-such-family"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown name: %v", err)
	}
	if _, _, err := gen.Parse("path:density=1"); err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Errorf("unknown parameter: %v", err)
	}
	if _, _, err := gen.Parse("path:n"); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed pair: %v", err)
	}
	if _, _, err := gen.Parse("matching-union:n=1000.9"); err == nil || !strings.Contains(err.Error(), "must be an integer") {
		t.Errorf("fractional integral parameter: %v", err)
	}
	if _, _, err := gen.Parse("matching-union:density=0.25"); err != nil {
		t.Errorf("fractional float parameter rejected: %v", err)
	}
}

// TestEveryScenarioRunsGreedy builds each family at modest size and runs
// the greedy machine on GOMAXPROCS engine workers, validating the matching — the
// registry's instances must all be executable, not just constructible. A
// family that carries labels also runs the §1.1 bipartite machine on them.
func TestEveryScenarioRunsGreedy(t *testing.T) {
	for _, s := range gen.All() {
		overrides := gen.Params{}
		if _, ok := s.Params["n"]; ok {
			overrides["n"] = 128
		}
		inst, err := s.Build(11, overrides)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		g := inst.G
		outs, _, err := runtime.RunWorkers(g, dist.NewGreedyMachine, runtime.DefaultMaxRounds(g))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := graph.CheckMatching(g, outs); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if inst.Labels == nil {
			continue
		}
		bouts, _, err := runtime.RunWorkersN(g, inst.Labels, dist.NewBipartiteMachine, 4*g.MaxDegree()+16, 2)
		if err != nil {
			t.Fatalf("%s (bipartite): %v", s.Name, err)
		}
		if err := graph.CheckMatching(g, bouts); err != nil {
			t.Fatalf("%s (bipartite): %v", s.Name, err)
		}
	}
}

// TestDoubleCoverIsBipartite checks the labels split every edge across the
// sides and that the bipartite machine accepts them.
func TestDoubleCoverIsBipartite(t *testing.T) {
	inst, _, err := gen.BuildSpec("double-cover:n=64", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Labels) != inst.G.N() {
		t.Fatalf("%d labels for %d nodes", len(inst.Labels), inst.G.N())
	}
	for _, e := range inst.G.Edges() {
		if inst.Labels[e.U] == inst.Labels[e.V] {
			t.Fatalf("edge {%d, %d} joins two side-%d nodes", e.U, e.V, inst.Labels[e.U])
		}
	}
	outs, _, err := runtime.RunWorkersN(inst.G, inst.Labels, dist.NewBipartiteMachine,
		4*inst.G.MaxDegree()+16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckMatching(inst.G, outs); err != nil {
		t.Fatal(err)
	}
}

// TestCaterpillarForcesFullGreedySchedule pins the lower-bound flavour of
// the caterpillar: greedy needs the full k−1 rounds on it.
func TestCaterpillarForcesFullGreedySchedule(t *testing.T) {
	for k := 2; k <= 8; k++ {
		inst, err := mustScenario(t, "caterpillar").Build(1, gen.Params{"k": float64(k)})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := runtime.RunSequential(inst.G, dist.NewGreedyMachine, 4*k)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != k-1 {
			t.Errorf("k=%d: greedy finished in %d rounds, want the full k−1 = %d", k, stats.Rounds, k-1)
		}
	}
}

func mustScenario(t *testing.T, name string) gen.Scenario {
	t.Helper()
	s, ok := gen.Lookup(name)
	if !ok {
		t.Fatalf("scenario %s not registered", name)
	}
	return s
}

// TestParseRefusesBadValues pins the parse-time refusals: values no family
// can build used to parse and then build a silently different instance
// (NaN and Inf densities as 1, a negative density or attempts count as an
// empty graph, n=1e30 wrapped to a negative int). Parse, ParseGrid and
// Build must all refuse them with an error naming the parameter.
func TestParseRefusesBadValues(t *testing.T) {
	cases := []struct{ spec, param string }{
		{"matching-union:density=NaN", "density"},
		{"matching-union:density=Inf", "density"},
		{"matching-union:density=-1", "density"},
		{"matching-union:n=1e30", "n"},
		{"bounded-degree:attempts=-5", "attempts"},
		{"double-cover:density=1.5", "density"},
		{"matching-union:n=9223372036854775808", "n"},
		{"matching-union:density=NaN..NaN", "density"},
		{"matching-union:density=0..Inf..+0.5", "density"},
	}
	for _, c := range cases {
		if _, _, err := gen.ParseGrid(c.spec); err == nil || !strings.Contains(err.Error(), c.param) {
			t.Errorf("ParseGrid(%q) = %v, want an error naming %q", c.spec, err, c.param)
		}
		if strings.Contains(c.spec, "..") {
			continue // range syntax is ParseGrid's alone
		}
		if _, _, err := gen.Parse(c.spec); err == nil || !strings.Contains(err.Error(), c.param) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", c.spec, err, c.param)
		}
	}
	// Build is reachable without Parse (parsed instance IDs, code), so the
	// refusal lives where every override passes.
	mu := mustScenario(t, "matching-union")
	if _, err := mu.Build(1, gen.Params{"density": math.NaN()}); err == nil || !strings.Contains(err.Error(), "density") {
		t.Errorf("Build with density=NaN: %v", err)
	}
	// The edges of the valid ranges still parse.
	for _, spec := range []string{
		"matching-union:density=0", "matching-union:density=1",
		"bounded-degree:attempts=0", "matching-union:n=9223372036854774784",
	} {
		if _, _, err := gen.Parse(spec); err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
	}
}

// TestLookupSharesOneRegistry pins the registry built once: Lookup
// allocates nothing, and All hands out copies whose mutation does not
// reach what Lookup returns.
func TestLookupSharesOneRegistry(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := gen.Lookup("double-cover"); !ok {
			t.Fatal("double-cover not registered")
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %v times per call, want 0", n)
	}
	before := mustScenario(t, "matching-union").Params.String()
	for _, s := range gen.All() {
		s.Params["n"] = -1
		s.Params["injected"] = 1
	}
	all := gen.All()
	all[0].Doc = "mutated"
	all[0].Params["density"] = 0.01
	s := mustScenario(t, "matching-union")
	if got := s.Params.String(); got != before {
		t.Errorf("Lookup defaults changed through All: %s, want %s", got, before)
	}
	if s.Doc == "mutated" {
		t.Error("Lookup's Doc changed through All")
	}
}

// TestRegularHighDegreeBuilds: the regular family builds at k = 16, where
// each whole-class reshuffle almost never avoids the earlier classes and
// the pairwise repair has to place the class.
func TestRegularHighDegreeBuilds(t *testing.T) {
	const n, k = 4096, 16
	for seed := int64(1); seed <= 5; seed++ {
		inst, _, err := gen.BuildSpec("regular:n=4096,k=16", seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		g := inst.G
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if g.NumEdges() != n*k/2 || g.MaxDegree() != k {
			t.Errorf("seed %d: %d edges, Δ = %d; want %d edges, Δ = %d", seed, g.NumEdges(), g.MaxDegree(), n*k/2, k)
		}
	}
}

package sweep

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// Algo is one runnable algorithm in the sweep registry: how to build its
// machines for an instance, how many rounds to budget the engine, and which
// communication contract to hold its traffic against. The per-instance
// closures exist because reduced and bipartite derive their constants from
// the instance's maximum degree, not from the palette alone.
type Algo struct {
	// Name is the registry key ("greedy", "reduced", "proposal",
	// "bipartite").
	Name string
	// NeedsLabels marks algorithms that require per-node input labels
	// (bipartite needs the two-colouring); cells on unlabelled families are
	// skipped, not failed.
	NeedsLabels bool
	// Source builds the machine source for one instance.
	Source func(g *graph.Graph) runtime.Source
	// MaxRounds is the engine's termination budget for one instance (a
	// safety net above the contract's bound, not the bound itself).
	MaxRounds func(g *graph.Graph) int
	// Contract is the paper's communication budget for one instance.
	Contract func(g *graph.Graph) dist.Contract
}

// algos returns the registered algorithms in a stable order. Every
// algorithm's Source is one arena of machines — one allocation per cell
// instead of one per node, with set-up shared by the arena (the reduced
// machines' schedule) done once. Concurrent cells never share an arena:
// each cell worker keeps one source of every algorithm for its small cells
// (sources), while a cell above graph.ReusesScratch's cap gets a fresh
// source that is dropped with it, since its retained scratch would count
// as live heap between cells.
func algos() []Algo {
	return []Algo{
		{
			Name:      "greedy",
			Source:    func(g *graph.Graph) runtime.Source { return dist.NewGreedyMachinePool(g.N()) },
			MaxRounds: runtime.DefaultMaxRounds,
			Contract:  func(g *graph.Graph) dist.Contract { return dist.GreedyContract(g.K()) },
		},
		{
			Name: "reduced",
			// The degree bound is taken from the instance itself, so the
			// machine never sees a graph past its Δ and the documented
			// panic cannot trigger from a sweep.
			Source: func(g *graph.Graph) runtime.Source {
				return dist.NewReducedGreedyMachinePool(g.MaxDegree(), g.N())
			},
			MaxRounds: func(g *graph.Graph) int {
				return max(runtime.DefaultMaxRounds(g), dist.TotalRounds(g.K(), g.MaxDegree())+8)
			},
			Contract: func(g *graph.Graph) dist.Contract {
				return dist.ReducedContract(g.K(), g.MaxDegree())
			},
		},
		{
			Name:      "proposal",
			Source:    func(g *graph.Graph) runtime.Source { return dist.NewProposalMachinePool(g.N()) },
			MaxRounds: runtime.DefaultMaxRounds,
			Contract:  func(g *graph.Graph) dist.Contract { return dist.ProposalContract(g.N(), g.MaxDegree()) },
		},
		{
			Name:        "bipartite",
			NeedsLabels: true,
			Source:      func(g *graph.Graph) runtime.Source { return dist.NewBipartiteMachinePool(g.N()) },
			MaxRounds:   func(g *graph.Graph) int { return 4*g.MaxDegree() + 16 },
			Contract:    func(g *graph.Graph) dist.Contract { return dist.BipartiteContract(g.MaxDegree()) },
		},
	}
}

// sources is one cell worker's kept machine sources, by algorithm name:
// the source of the worker's first small cell of that algorithm, reused
// for every later one. The worker runs one cell at a time, and every
// machine's Init fully resets it, so a cell run on a kept source emits the
// row a fresh source would.
type sources map[string]runtime.Source

// retargeter is a source made for one degree bound (the reduced
// machines'), which a kept source is set to the next instance's Δ by.
type retargeter interface{ Retarget(delta int) }

// source returns the machine source for a cell of algorithm a on g: the
// kept one, retargeted to g's Δ where it takes one, when g is small, else
// a fresh one, which is kept when g is small and none is yet. A nil
// sources always gives a fresh one.
func (s sources) source(a Algo, g *graph.Graph) runtime.Source {
	if s == nil || !graph.ReusesScratch(g.N()) {
		return a.Source(g)
	}
	if src, ok := s[a.Name]; ok {
		if r, ok := src.(retargeter); ok {
			r.Retarget(g.MaxDegree())
		}
		return src
	}
	src := a.Source(g)
	s[a.Name] = src
	return src
}

// AlgoNames lists the registered algorithm names in registry order.
func AlgoNames() []string {
	all := algos()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// AlgoByName returns the algorithm with the given name.
func AlgoByName(name string) (Algo, bool) {
	for _, a := range algos() {
		if a.Name == name {
			return a, true
		}
	}
	return Algo{}, false
}

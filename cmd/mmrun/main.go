// Command mmrun executes a distributed maximal-matching machine on a
// generated instance and reports rounds, messages and matching size.
//
// Instances come either from the legacy -graph kinds or from the scenario
// registry in internal/gen (-scenario overrides -graph): every registered
// family can be named, parameterised and rebuilt deterministically from a
// seed.
//
// Usage:
//
//	mmrun -graph worstcase -k 6                    # §1.2 instance, greedy
//	mmrun -graph random -n 100 -k 8 -algo proposal
//	mmrun -graph regular -n 64 -k 5 -workers 1
//	mmrun -scenario matching-union:n=65536,k=6 -workers 8
//	mmrun -scenario matching-union:n=1048576,k=6 -workers 0  # scale: 2^20 nodes on GOMAXPROCS workers
//	mmrun -scenario caterpillar:k=8,legs=2 -stats  # per-round histogram
//	mmrun -scenario double-cover:n=512 -algo bipartite
//	mmrun -scenario list                           # list the registry
//	mmrun -graph cayley -k 4 -radius 4 -algo reduced -delta 4
//	mmrun -graph figure1 -dot                      # emit Graphviz with the matching
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	goruntime "runtime"

	"repro/internal/cli"
	"repro/internal/colsys"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmrun with its arguments and output streams passed in; it returns
// the process exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphKind := fs.String("graph", "worstcase", "instance: figure1, worstcase, random, regular, bounded, cayley")
	scenario := fs.String("scenario", "", "scenario spec name[:param=value,…] from internal/gen (overrides -graph); \"list\" prints the registry")
	algName := fs.String("algo", "greedy", "machine: greedy, proposal, reduced, bipartite (bipartite needs a labelled scenario)")
	workers := fs.Int("workers", 1, "engine worker count (0 = GOMAXPROCS); results are identical at every count")
	n := fs.Int("n", 64, "number of nodes (random/regular/bounded)")
	k := fs.Int("k", 4, "number of edge colours")
	delta := fs.Int("delta", 3, "degree bound (bounded graphs, reduced machine)")
	radius := fs.Int("radius", 3, "ball radius (cayley graphs)")
	seed := fs.Int64("seed", 1, "random seed")
	stats := fs.Bool("stats", false, "print the per-round message/byte histogram")
	dot := fs.Bool("dot", false, "emit Graphviz DOT with the matching in bold")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}

	if *scenario == "list" {
		cli.PrintScenarios(stdout)
		return cli.ExitOK
	}
	if *scenario != "" {
		// Instance-shape flags belong in the spec when a scenario is
		// named; silently ignoring an explicit -n/-k would run a
		// different instance than the user asked for.
		ignored := map[string]bool{"graph": true, "n": true, "k": true, "radius": true}
		var set string
		fs.Visit(func(f *flag.Flag) {
			if ignored[f.Name] && set == "" {
				set = f.Name
			}
		})
		if set != "" {
			fmt.Fprintf(stderr, "mmrun: -%s has no effect with -scenario; pass instance parameters in the spec (e.g. -scenario name:%s=…)\n", set, set)
			return cli.ExitMismatch
		}
	}

	var g *graph.Graph
	var labels []int
	var err error
	instName := *graphKind
	if *scenario != "" {
		var inst *gen.Instance
		var sc gen.Scenario
		inst, sc, err = gen.BuildSpec(*scenario, *seed)
		if err == nil {
			g, labels, instName = inst.G, inst.Labels, sc.Name
		}
	} else {
		g, err = buildGraph(*graphKind, *n, *k, *delta, *radius, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mmrun: %v\n", err)
		return cli.ExitMismatch
	}

	var src runtime.Source
	maxRounds := runtime.DefaultMaxRounds(g)
	switch *algName {
	case "greedy":
		src = dist.NewGreedyMachinePool(g.N())
	case "proposal":
		src = dist.NewProposalMachinePool(g.N())
	case "reduced":
		// The reduced machine panics (documented) past its degree bound;
		// with -scenario the instance no longer derives from -delta, so
		// check the mismatch here and fail with a usable message instead.
		if d := g.MaxDegree(); d > *delta {
			fmt.Fprintf(stderr, "mmrun: -algo reduced needs max degree ≤ delta, but the instance has Δ = %d > %d; raise -delta\n", d, *delta)
			return cli.ExitMismatch
		}
		src = dist.NewReducedGreedyMachinePool(*delta, g.N())
		if t := dist.TotalRounds(g.K(), *delta) + 8; t > maxRounds {
			maxRounds = t
		}
	case "bipartite":
		if labels == nil {
			fmt.Fprintln(stderr, "mmrun: -algo bipartite needs a labelled instance (e.g. -scenario double-cover)")
			return cli.ExitMismatch
		}
		src = dist.NewBipartiteMachinePool(g.N())
		if t := 4*g.MaxDegree() + 16; t > maxRounds {
			maxRounds = t
		}
	default:
		fmt.Fprintf(stderr, "mmrun: unknown algorithm %q\n", *algName)
		return cli.ExitMismatch
	}

	nw := *workers
	if nw <= 0 {
		nw = goruntime.GOMAXPROCS(0)
	}
	outs, st, err := runtime.RunWorkersN(g, labels, src, maxRounds, nw)
	if err != nil {
		fmt.Fprintf(stderr, "mmrun: %v\n", err)
		return cli.ExitFailure
	}

	matching := graph.MatchingEdges(g, outs)
	if *dot {
		if err := g.DOT(stdout, nil, matching); err != nil {
			fmt.Fprintf(stderr, "mmrun: %v\n", err)
			return cli.ExitFailure
		}
		return cli.ExitOK
	}

	fmt.Fprintf(stdout, "instance:  %s (n=%d, |E|=%d, Δ=%d, k=%d)\n",
		instName, g.N(), g.NumEdges(), g.MaxDegree(), g.K())
	fmt.Fprintf(stdout, "algorithm: %s on %d engine worker(s)\n", *algName, nw)
	fmt.Fprintf(stdout, "rounds:    %d (greedy bound k−1 = %d)\n", st.Rounds, g.K()-1)
	fmt.Fprintf(stdout, "messages:  %d\n", st.Messages)
	fmt.Fprintf(stdout, "matching:  %d edges\n", len(matching))
	if *stats {
		printPerRound(stdout, st)
	}
	if err := graph.CheckMatching(g, outs); err != nil {
		fmt.Fprintf(stderr, "mmrun: INVALID OUTPUT: %v\n", err)
		return cli.ExitFailure
	}
	fmt.Fprintln(stdout, "validated: maximal matching (M1–M3 hold)")
	return cli.ExitOK
}

// printPerRound renders the engine's per-round traffic histogram.
func printPerRound(w io.Writer, st *runtime.Stats) {
	fmt.Fprintln(w, "per-round traffic:")
	fmt.Fprintf(w, "  %5s  %9s  %10s\n", "round", "messages", "bytes")
	for r, t := range st.PerRound {
		fmt.Fprintf(w, "  %5d  %9d  %10d\n", r+1, t.Messages, t.Bytes)
	}
}

func buildGraph(kind string, n, k, delta, radius int, seed int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "figure1":
		return graph.Figure1()
	case "worstcase":
		wc, err := graph.NewWorstCase(k)
		if err != nil {
			return nil, err
		}
		return wc.G, nil
	case "random":
		return graph.RandomMatchingUnion(n, k, 0.8, rng), nil
	case "regular":
		return graph.RandomRegular(n, k, rng)
	case "bounded":
		return graph.RandomBoundedDegree(n, k, delta, 6*n, rng), nil
	case "cayley":
		g, _, err := graph.FromSystem(colsys.Full(k), radius)
		return g, err
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}

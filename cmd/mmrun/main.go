// Command mmrun runs one sweep cell by hand: a distributed maximal-matching
// machine from internal/sweep's registry on a scenario spec from
// internal/gen, built from -seed as a sweep builds it. It reports rounds,
// messages and matching size, which equal those of the sweep row with the
// same scenario, params, seed and algorithm.
//
// Usage:
//
//	mmrun                                          # §1.2 instance (worstcase:k=4), greedy
//	mmrun -scenario matching-union:n=100,k=8 -algo proposal
//	mmrun -scenario matching-union:n=1048576,k=6 -workers 0  # scale: 2^20 nodes on GOMAXPROCS workers
//	mmrun -scenario caterpillar:k=8,legs=2 -stats  # per-round histogram
//	mmrun -scenario double-cover:n=512 -algo bipartite
//	mmrun -scenario bounded-degree:n=128,k=1024,delta=3 -algo reduced  # Δ from the instance
//	mmrun -scenario list                           # list the registry
//	mmrun -scenario regular:n=16,k=4 -dot          # emit Graphviz with the matching
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"

	"repro/internal/cli"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/runtime"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmrun with its arguments and output streams passed in; it returns
// the process exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", "worstcase:k=4", "scenario spec name[:param=value,…] from internal/gen; \"list\" prints the registry")
	algName := fs.String("algo", "greedy", fmt.Sprintf("algorithm from the sweep registry %v (bipartite needs a labelled scenario)", sweep.AlgoNames()))
	workers := fs.Int("workers", 1, "engine worker count (0 = GOMAXPROCS); results are identical at every count")
	seed := fs.Int64("seed", 1, "instance seed (a sweep row's seed rebuilds its instance)")
	stats := fs.Bool("stats", false, "print the per-round message/byte histogram")
	dot := fs.Bool("dot", false, "emit Graphviz DOT with the matching in bold")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mmrun: unexpected argument %q (give the instance with -scenario)\n", fs.Arg(0))
		return cli.ExitMismatch
	}

	if *scenario == "list" {
		cli.PrintScenarios(stdout)
		return cli.ExitOK
	}
	inst, sc, err := gen.BuildSpec(*scenario, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "mmrun: %v\n", err)
		return cli.ExitMismatch
	}
	g := inst.G
	a, ok := sweep.AlgoByName(*algName)
	if !ok {
		fmt.Fprintf(stderr, "mmrun: unknown algorithm %q\n", *algName)
		return cli.ExitMismatch
	}
	if a.NeedsLabels && inst.Labels == nil {
		fmt.Fprintf(stderr, "mmrun: -algo %s needs a labelled instance (e.g. -scenario double-cover)\n", a.Name)
		return cli.ExitMismatch
	}

	nw := *workers
	if nw <= 0 {
		nw = goruntime.GOMAXPROCS(0)
	}
	outs, st, err := runtime.RunWorkersN(g, inst.Labels, a.Source(g), a.MaxRounds(g), nw)
	if err != nil {
		fmt.Fprintf(stderr, "mmrun: %v\n", err)
		return cli.ExitFailure
	}

	if err := graph.CheckMatching(g, outs); err != nil {
		fmt.Fprintf(stderr, "mmrun: INVALID OUTPUT: %v\n", err)
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
		sc.Name, g.N(), g.NumEdges(), g.MaxDegree(), g.K())
	fmt.Fprintf(stdout, "algorithm: %s on %d engine worker(s)\n", a.Name, nw)
	fmt.Fprintf(stdout, "rounds:    %d (greedy bound k−1 = %d)\n", st.Rounds, g.K()-1)
	fmt.Fprintf(stdout, "messages:  %d\n", st.Messages)
	fmt.Fprintf(stdout, "matching:  %d edges\n", len(matching))
	if *stats {
		printPerRound(stdout, st)
	}
	fmt.Fprintln(stdout, "validated: maximal matching (M1–M3 hold)")
	return cli.ExitOK
}

// printPerRound renders the engine's per-round traffic histogram.
func printPerRound(w io.Writer, st *runtime.Stats) {
	fmt.Fprintln(w, "per-round traffic:")
	fmt.Fprintf(w, "  %5s  %9s  %10s\n", "round", "messages", "bytes")
	for _, t := range st.PerRound() {
		fmt.Fprintf(w, "  %5d  %9d  %10d\n", t.Round, t.Messages, t.Bytes)
	}
}

// Command mmcayley renders windows of Cayley-graph colour systems — Γ_k,
// the Figure 2 example, bi-infinite paths, or the adversary's U and V —
// and the Figure 1 instance (graph.Figure1; -k and -radius do not apply)
// as Graphviz DOT, optionally with the greedy matching in bold.
//
// Usage:
//
//	mmcayley -system full -k 3 -radius 3 | dot -Tpng > gamma3.png
//	mmcayley -system figure2
//	mmcayley -system adversary-u -k 4 -radius 3 -matching
//	mmcayley -system figure1 -matching
//
// Exit codes (internal/cli): 0 success, 1 a failed render, 2 bad usage
// (an unknown system, -k < 1, -radius < 0 or a positional argument).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/algo"
	"repro/internal/cli"
	"repro/internal/colsys"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/group"
	"repro/internal/mm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmcayley with its arguments and output streams passed in; it
// returns the process exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmcayley", flag.ContinueOnError)
	fs.SetOutput(stderr)
	system := fs.String("system", "full", "system: full, figure1, figure2, path, adversary-u, adversary-v")
	k := fs.Int("k", 3, "number of colours (≥ 1)")
	radius := fs.Int("radius", 3, "window radius (≥ 0)")
	matching := fs.Bool("matching", false, "highlight the greedy matching")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "mmcayley: unexpected argument %q\n", fs.Arg(0))
		return cli.ExitMismatch
	case *k < 1:
		fmt.Fprintf(stderr, "mmcayley: -k must be at least 1, got %d\n", *k)
		return cli.ExitMismatch
	case *radius < 0:
		fmt.Fprintf(stderr, "mmcayley: -radius must be at least 0, got %d\n", *radius)
		return cli.ExitMismatch
	}

	if *system == "figure1" {
		g, err := graph.Figure1()
		if err != nil {
			fmt.Fprintf(stderr, "mmcayley: %v\n", err)
			return cli.ExitFailure
		}
		var highlight []graph.Edge
		if *matching {
			highlight = graph.MatchingEdges(g, graph.SequentialGreedy(g, nil))
		}
		if err := g.DOT(stdout, nil, highlight); err != nil {
			fmt.Fprintf(stderr, "mmcayley: %v\n", err)
			return cli.ExitFailure
		}
		return cli.ExitOK
	}

	sys, err := buildSystem(*system, *k)
	if err != nil {
		fmt.Fprintf(stderr, "mmcayley: %v\n", err)
		return cli.ExitMismatch
	}

	g, index, err := graph.FromSystem(sys, *radius)
	if err != nil {
		fmt.Fprintf(stderr, "mmcayley: %v\n", err)
		return cli.ExitFailure
	}
	names := make([]string, g.N())
	for key, id := range index {
		names[id] = group.FromKey(key).String()
	}

	var highlight []graph.Edge
	if *matching {
		viewGreedy := algo.NewGreedy()
		for _, w := range colsys.Nodes(sys, *radius) {
			if w.IsIdentity() {
				continue
			}
			c := w.Tail()
			if viewGreedy.Eval(sys, w) == mm.Matched(c) && viewGreedy.Eval(sys, w.Pred()) == mm.Matched(c) {
				highlight = append(highlight, graph.Edge{
					U: index[w.Pred().Key()], V: index[w.Key()], Color: c,
				})
			}
		}
	}
	if err := g.DOT(stdout, func(v int) string { return names[v] }, highlight); err != nil {
		fmt.Fprintf(stderr, "mmcayley: %v\n", err)
		return cli.ExitFailure
	}
	return cli.ExitOK
}

func buildSystem(name string, k int) (colsys.System, error) {
	switch name {
	case "full":
		return colsys.Full(k), nil
	case "figure2":
		return colsys.ParseFinite(3, "e, 1, 2, 2·1, 3, 3·1, 3·2")
	case "path":
		right := make([]group.Color, 0, k)
		left := make([]group.Color, 0, k)
		for c := 1; c <= k; c++ {
			right = append(right, group.Color(c))
			left = append(left, group.Color(k+1-c))
		}
		return colsys.NewPath(k, right, left)
	case "adversary-u", "adversary-v":
		adv, err := core.New(algo.NewGreedy(), k)
		if err != nil {
			return nil, err
		}
		res, err := adv.Run()
		if err != nil {
			return nil, err
		}
		if name == "adversary-u" {
			return res.U.System(), nil
		}
		return res.V.System(), nil
	default:
		return nil, fmt.Errorf("unknown system %q", name)
	}
}

// Command mmadversary executes the paper's Section 3 lower-bound
// construction (Theorem 5) against a chosen algorithm: it derives two
// d-regular k-edge-coloured trees U and V whose radius-d views at the root
// coincide although the algorithm's outputs differ — proving the algorithm
// needs at least d = k−1 rounds. Against an incorrect algorithm it prints
// the concrete counterexample instead.
//
// Usage:
//
//	mmadversary -k 5                        # defeat greedy at k = 5
//	mmadversary -k 4 -algo greedy-reverse   # defeat a permuted greedy
//	mmadversary -k 4 -algo unmatched        # certify incorrectness
//	mmadversary -k 4 -show 2                # print U and V up to norm 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/cli"
	"repro/internal/colsys"
	"repro/internal/core"
	"repro/internal/group"
	"repro/internal/mm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmadversary with its arguments and output streams passed in; it
// returns the process exit code (see internal/cli). A caught incorrect
// algorithm is a result, not a failure: it exits 0.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmadversary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 4, "number of edge colours (k ≥ 3)")
	algName := fs.String("algo", "greedy", "algorithm: greedy, greedy-reverse, restricted:<r>, unmatched, first-color")
	verbose := fs.Bool("v", false, "trace construction steps")
	paranoia := fs.Int("paranoia", -1, "re-verify intermediates on windows of this radius (-1 = off)")
	show := fs.Int("show", 0, "print U and V up to this norm")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mmadversary: unexpected argument %q\n", fs.Arg(0))
		return cli.ExitMismatch
	}

	alg, err := pickAlgorithm(*algName, *k)
	if err != nil {
		fmt.Fprintf(stderr, "mmadversary: %v\n", err)
		return cli.ExitMismatch
	}

	opts := []core.Option{}
	if *verbose {
		opts = append(opts, core.WithTrace(func(format string, args ...any) {
			fmt.Fprintf(stdout, "  "+format+"\n", args...)
		}))
	}
	if *paranoia >= 0 {
		opts = append(opts, core.WithParanoia(*paranoia))
	}

	adv, err := core.New(alg, *k, opts...)
	if err != nil {
		fmt.Fprintf(stderr, "mmadversary: %v\n", err)
		return cli.ExitMismatch
	}

	fmt.Fprintf(stdout, "running the Theorem 5 adversary against %q with k = %d (d = %d)\n",
		alg.Name(), *k, *k-1)
	start := time.Now()
	res, err := adv.Run()
	if err != nil {
		var inc *core.IncorrectnessError
		if errors.As(err, &inc) {
			fmt.Fprintf(stdout, "\nalgorithm caught violating the maximal-matching properties:\n")
			fmt.Fprintf(stdout, "  stage:    %s\n", inc.Stage)
			fmt.Fprintf(stdout, "  detail:   %s\n", inc.Detail)
			if inc.Evidence != nil {
				fmt.Fprintf(stdout, "  evidence: property %s fails at node %v (output %v): %s\n",
					inc.Evidence.Property, inc.Evidence.Node, inc.Evidence.Output, inc.Evidence.Detail)
			}
			fmt.Fprintln(stdout, "\nTheorem 2 survives: the algorithm is either slow or wrong.")
			return cli.ExitOK
		}
		fmt.Fprintf(stderr, "mmadversary: %v\n", err)
		return cli.ExitFailure
	}

	fmt.Fprintf(stdout, "\nconstruction complete in %v:\n", time.Since(start).Round(time.Millisecond))
	for _, pair := range res.Pairs {
		suffix := ""
		if pair.H > 1 {
			side := "L1"
			if pair.FromK {
				side = "K1"
			}
			suffix = fmt.Sprintf("  (χ = %v, y = %v ∈ %s)", pair.Chi, pair.Y, side)
		}
		fmt.Fprintf(stdout, "  level h = %d: critical pair constructed%s\n", pair.H, suffix)
	}
	fmt.Fprintf(stdout, "\nresult: U[d] = V[d] for d = %d, yet A(U, e) = %v while A(V, e) = %v\n",
		res.D, res.OutU, res.OutV)
	if err := res.Verify(adv); err != nil {
		fmt.Fprintf(stderr, "mmadversary: verification failed: %v\n", err)
		return cli.ExitFailure
	}
	fmt.Fprintf(stdout, "verified: %q needs at least %d communication rounds on k = %d colours.\n",
		alg.Name(), res.D, res.K)

	if *show > 0 {
		fmt.Fprintf(stdout, "\nU up to norm %d: %s\n", *show, window(res.U.System(), *show))
		fmt.Fprintf(stdout, "V up to norm %d: %s\n", *show, window(res.V.System(), *show))
	}
	return cli.ExitOK
}

func pickAlgorithm(name string, k int) (mm.Algorithm, error) {
	switch {
	case name == "greedy":
		return algo.NewGreedy(), nil
	case name == "greedy-reverse":
		order := make([]group.Color, k)
		for i := range order {
			order[i] = group.Color(k - i)
		}
		return algo.NewGreedyOrder(order)
	case name == "unmatched":
		return algo.Unmatched{}, nil
	case name == "first-color":
		return algo.FirstColor{}, nil
	case strings.HasPrefix(name, "restricted:"):
		var r int
		if _, err := fmt.Sscanf(name, "restricted:%d", &r); err != nil {
			return nil, fmt.Errorf("bad restricted spec %q", name)
		}
		return algo.NewRestricted(algo.NewGreedy(), r), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

func window(v colsys.System, radius int) string {
	words := colsys.Nodes(v, radius)
	parts := make([]string, len(words))
	for i, w := range words {
		parts[i] = w.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Command mmexperiments regenerates the paper's figures, lemmas and
// theorems as experiment tables (run -list for the index).
//
// Usage:
//
//	mmexperiments             # run all registered experiments
//	mmexperiments -run E9     # run one experiment
//	mmexperiments -list       # list the registry
//
// Exit codes (internal/cli): 0 success, 1 a failed experiment, 2 bad
// usage (an unknown experiment ID or a positional argument).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmexperiments with its arguments and output streams passed in;
// it returns the process exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	id := fs.String("run", "", "run a single experiment by ID (e.g. E9)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mmexperiments: unexpected argument %q (name one experiment with -run)\n", fs.Arg(0))
		return cli.ExitMismatch
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(stdout, "%-4s %-60s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return cli.ExitOK
	}
	if *id != "" {
		e, ok := harness.ByID(*id)
		if !ok {
			fmt.Fprintf(stderr, "mmexperiments: unknown experiment %q\n", *id)
			return cli.ExitMismatch
		}
		fmt.Fprintf(stdout, "=== %s — %s (%s)\n", e.ID, e.Title, e.Paper)
		if err := e.Run(stdout); err != nil {
			fmt.Fprintf(stderr, "mmexperiments: %s failed: %v\n", e.ID, err)
			return cli.ExitFailure
		}
		return cli.ExitOK
	}
	if err := harness.RunAll(stdout); err != nil {
		fmt.Fprintf(stderr, "mmexperiments: %v\n", err)
		return cli.ExitFailure
	}
	return cli.ExitOK
}

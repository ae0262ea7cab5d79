package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/sweep"
)

// TestRunExitCodes drives mmrun through run: a valid instance validates
// and exits 0, and each usage mistake is refused with exit 2 and a message
// on stderr naming it.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stdout on success, of stderr otherwise
	}{
		{"default", nil, cli.ExitOK, "instance:  worstcase (n=9, |E|=7, Δ=2, k=4)"},
		{"worst case", []string{"-scenario", "worstcase:k=6"}, cli.ExitOK, "rounds:    5"},
		{"reduced on a tree", []string{"-scenario", "tree:n=64,k=8", "-algo", "reduced"}, cli.ExitOK, "algorithm: reduced"},
		{"bipartite", []string{"-scenario", "double-cover:n=16", "-algo", "bipartite"}, cli.ExitOK, "algorithm: bipartite"},
		{"list", []string{"-scenario", "list"}, cli.ExitOK, "double-cover"},
		{"dot", []string{"-scenario", "path:n=4", "-dot"}, cli.ExitOK, "graph G {"},
		// Instances are gen specs only: -graph, -n and -delta are not flags.
		{"unknown graph", []string{"-graph", "nope"}, cli.ExitMismatch, "flag provided but not defined: -graph"},
		{"-n with -scenario", []string{"-scenario", "path:n=4", "-n", "5"}, cli.ExitMismatch, "flag provided but not defined: -n"},
		{"-delta is gone", []string{"-algo", "reduced", "-delta", "3"}, cli.ExitMismatch, "flag provided but not defined: -delta"},
		{"unknown scenario", []string{"-scenario", "nope"}, cli.ExitMismatch, `unknown scenario "nope"`},
		{"bad param", []string{"-scenario", "path:m=4"}, cli.ExitMismatch, `"m"`},
		{"unknown algo", []string{"-algo", "nope"}, cli.ExitMismatch, `unknown algorithm "nope"`},
		{"bipartite unlabelled", []string{"-algo", "bipartite"}, cli.ExitMismatch, "needs a labelled instance"},
		{"positional", []string{"path:n=8"}, cli.ExitMismatch, `unexpected argument "path:n=8"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			out := stderr.String()
			if code == cli.ExitOK {
				out = stdout.String()
				if !slices.Contains(tc.args, "list") && !slices.Contains(tc.args, "-dot") && !strings.Contains(out, "validated: maximal matching") {
					t.Errorf("stdout lacks the validation line:\n%s", out)
				}
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestRunMatchesSweepRow holds mmrun to the sweep: for every row a sweep
// emits, mmrun on the row's scenario, params, seed and algorithm reports
// the row's rounds, messages and matching size. The grids include
// instances whose Δ is not 3 and a tree, where the reduction's degree
// bound must come from the instance.
func TestRunMatchesSweepRow(t *testing.T) {
	cfg := sweep.Config{
		Grids: []string{"path:n=64,k=5", "tree:n=64,k=8", "bounded-degree:n=128,k=64,delta=3", "double-cover:n=16"},
		Algos: sweep.AlgoNames(),
		Seed:  1,
	}
	var rows []sweep.Result
	if _, err := sweep.Stream(context.Background(), cfg, sweep.SinkFunc(func(r *sweep.Result) error {
		rows = append(rows, *r)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	field := regexp.MustCompile(`(?m)^(rounds|messages|matching):\s+(\d+)`)
	ran := 0
	for _, row := range rows {
		if row.Skip != "" {
			continue
		}
		ran++
		args := []string{"-scenario", row.Scenario + ":" + row.Params, "-seed", strconv.FormatInt(row.Seed, 10), "-algo", row.Algo}
		t.Run(row.ID(), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != cli.ExitOK {
				t.Fatalf("mmrun %s: exit %d\nstderr:\n%s", strings.Join(args, " "), code, &stderr)
			}
			got := map[string]string{}
			for _, m := range field.FindAllStringSubmatch(stdout.String(), -1) {
				got[m[1]] = m[2]
			}
			want := map[string]string{
				"rounds":   fmt.Sprint(row.Rounds),
				"messages": fmt.Sprint(row.Messages),
				"matching": fmt.Sprint(row.Matched),
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("mmrun %s: %s %q, sweep row has %s\nstdout:\n%s", strings.Join(args, " "), k, got[k], w, &stdout)
				}
			}
		})
	}
	// Bipartite runs only on double-cover; every other cell runs.
	if want := len(rows) - 3; ran != want {
		t.Errorf("%d of %d rows ran, want %d", ran, len(rows), want)
	}
}

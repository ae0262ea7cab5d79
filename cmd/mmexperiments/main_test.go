package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/harness"
)

// TestRunExitCodes drives mmexperiments through run: -list and a known
// -run exit 0, and each usage mistake is refused with exit 2 and a message
// on stderr naming it. The no-argument run's output is pinned byte for
// byte by internal/harness's experiments.golden.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // prefix of stdout on success, substring of stderr otherwise
	}{
		{"list", []string{"-list"}, cli.ExitOK, "E1 "},
		{"one experiment", []string{"-run", "E1"}, cli.ExitOK, "=== E1 — "},
		{"unknown experiment", []string{"-run", "E99"}, cli.ExitMismatch, `unknown experiment "E99"`},
		{"positional", []string{"E9"}, cli.ExitMismatch, `unexpected argument "E9"`},
		{"unknown flag", []string{"-k", "4"}, cli.ExitMismatch, "flag provided but not defined: -k"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			if code == cli.ExitOK {
				if !strings.HasPrefix(stdout.String(), tc.want) {
					t.Errorf("stdout does not start with %q:\n%s", tc.want, &stdout)
				}
				return
			}
			if stdout.Len() != 0 {
				t.Errorf("refused run wrote to stdout:\n%s", &stdout)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, &stderr)
			}
		})
	}
}

// TestRunListsRegistry holds -list to the registry: one line per
// experiment, IDs in All()'s order.
func TestRunListsRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != cli.ExitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	var got, want []string
	for _, line := range strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	for _, e := range harness.All() {
		want = append(want, e.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("-list IDs %v, want %v", got, want)
	}
}

package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestRunExitCodes drives mmadversary through run: a construction that
// defeats the algorithm and a caught incorrect algorithm both exit 0, and
// each usage mistake is refused with exit 2 and a message on stderr naming
// it. The "construction complete in …" line carries a wall-clock time, so
// outputs are matched by substring only.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stdout on success, of stderr otherwise
	}{
		{"greedy", []string{"-k", "3"}, cli.ExitOK, `verified: "greedy" needs at least 2 communication rounds on k = 3 colours.`},
		{"caught", []string{"-k", "3", "-algo", "unmatched"}, cli.ExitOK, "Theorem 2 survives"},
		{"help", []string{"-h"}, cli.ExitOK, ""},
		{"k too small", []string{"-k", "2"}, cli.ExitMismatch, "requires k ≥ 3"},
		{"unknown algo", []string{"-k", "3", "-algo", "nope"}, cli.ExitMismatch, `unknown algorithm "nope"`},
		{"bad restricted", []string{"-k", "3", "-algo", "restricted:x"}, cli.ExitMismatch, `bad restricted spec "restricted:x"`},
		{"unknown flag", []string{"-n", "3"}, cli.ExitMismatch, "flag provided but not defined: -n"},
		{"positional", []string{"-k", "3", "extra"}, cli.ExitMismatch, `unexpected argument "extra"`},
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
			} else if stdout.Len() > 0 {
				t.Errorf("refused run wrote to stdout:\n%s", &stdout)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

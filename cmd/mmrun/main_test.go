package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cli"
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
		{"worst case", []string{"-graph", "worstcase", "-k", "6"}, cli.ExitOK, "rounds:    5"},
		{"-n with -scenario", []string{"-scenario", "path:n=4", "-n", "5"}, cli.ExitMismatch, "-n has no effect with -scenario"},
		{"unknown algo", []string{"-algo", "nope"}, cli.ExitMismatch, `unknown algorithm "nope"`},
		{"bipartite unlabelled", []string{"-algo", "bipartite"}, cli.ExitMismatch, "needs a labelled instance"},
		{"reduced past delta", []string{"-graph", "cayley", "-k", "4", "-radius", "2", "-algo", "reduced"}, cli.ExitMismatch, "Δ = 4 > 3"},
		{"unknown graph", []string{"-graph", "nope"}, cli.ExitMismatch, `unknown graph kind "nope"`},
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
				if !strings.Contains(out, "validated: maximal matching") {
					t.Errorf("stdout lacks the validation line:\n%s", out)
				}
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/cli"
)

// failWriter refuses every write, standing in for a closed stdout.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestRunExitCodes drives mmcayley through run: each system it renders
// exits 0 with a DOT graph on stdout, a failed write exits 1, and each
// usage mistake is refused with exit 2 and a message on stderr naming it.
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stdout io.Writer // nil = a buffer
		code   int
		want   string // substring of stdout on success, of stderr otherwise
		bold   int    // bold (matched) edges expected on success
	}{
		{name: "full", args: []string{"-system", "full", "-k", "4", "-radius", "3", "-matching"}, code: cli.ExitOK, want: `n0 [label="e"]`, bold: 13},
		{name: "figure2", args: []string{"-system", "figure2"}, code: cli.ExitOK, want: "graph G {"},
		// Figure 1 is the 4-cube, whose colour-1 class is a perfect matching.
		{name: "figure1", args: []string{"-system", "figure1", "-matching"}, code: cli.ExitOK, want: `n0 -- n1 [label="1", style=bold`, bold: 8},
		{name: "write fails", args: []string{"-system", "figure2"}, stdout: failWriter{}, code: cli.ExitFailure, want: "write refused"},
		{name: "unknown system", args: []string{"-system", "nope"}, code: cli.ExitMismatch, want: `unknown system "nope"`},
		{name: "k zero", args: []string{"-k", "0"}, code: cli.ExitMismatch, want: "-k must be at least 1, got 0"},
		{name: "k negative", args: []string{"-k", "-1"}, code: cli.ExitMismatch, want: "-k must be at least 1, got -1"},
		{name: "radius negative", args: []string{"-radius", "-1"}, code: cli.ExitMismatch, want: "-radius must be at least 0, got -1"},
		{name: "positional", args: []string{"full"}, code: cli.ExitMismatch, want: `unexpected argument "full"`},
		{name: "unknown flag", args: []string{"-n", "4"}, code: cli.ExitMismatch, want: "flag provided but not defined: -n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			w := tc.stdout
			if w == nil {
				w = &stdout
			}
			code := run(tc.args, w, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			out := stderr.String()
			if code == cli.ExitOK {
				out = stdout.String()
				if !strings.HasPrefix(out, "graph G {") || !strings.HasSuffix(out, "}\n") {
					t.Errorf("stdout is not one DOT graph:\n%s", out)
				}
				if got := strings.Count(out, "style=bold"); got != tc.bold {
					t.Errorf("%d bold edges, want %d", got, tc.bold)
				}
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

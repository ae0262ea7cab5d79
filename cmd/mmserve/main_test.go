package main

import (
	"bytes"
	"log"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cli"
)

// TestHTTPServerBoundsConnections: the API server must bound both how long
// a client may take to send its headers and how long an idle keep-alive
// connection is held; a zero value means no bound at all.
func TestHTTPServerBoundsConnections(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler(), log.Default())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want a positive bound", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want a positive bound", hs.IdleTimeout)
	}
}

// TestRunUsageExitCodes pins the usage half of mmserve's exit-code
// contract: -h exits 0, and an unknown flag or a positional argument is
// refused with exit 2 before anything listens.
func TestRunUsageExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"help", []string{"-h"}, cli.ExitOK, "-max-sweeps"},
		{"unknown flag", []string{"-n", "4"}, cli.ExitMismatch, "flag provided but not defined: -n"},
		{"positional", []string{"-addr", "127.0.0.1:0", "extra"}, cli.ExitMismatch, `unexpected arguments ["extra"]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, tc.code, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, &stderr)
			}
			if stdout.Len() > 0 {
				t.Errorf("stdout is not empty:\n%s", &stdout)
			}
		})
	}
}

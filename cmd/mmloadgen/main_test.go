package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/serve"
)

// TestRunExitCodes drives mmloadgen through run. Cases with live set run
// against a fresh in-process mmserve with -target pointed at it, so the
// server's counters cover exactly that run; want is a substring of stderr.
func TestRunExitCodes(t *testing.T) {
	short := []string{"-rate", "20", "-ramp-up", "0", "-hold", "500ms", "-ramp-down", "0",
		"-queue", "-mix", "path:n=16"}
	for _, tc := range []struct {
		name string
		args []string
		live bool
		code int
		want string
	}{
		{"positional argument", []string{"extra"}, false, cli.ExitMismatch, "unexpected arguments"},
		{"sender flag", []string{"-sender", "engine"}, false, cli.ExitMismatch, "flag provided but not defined: -sender"},
		{"bad weight", []string{"-mix", "path:n=8@x"}, false, cli.ExitMismatch, "bad weight"},
		{"unknown family", []string{"-mix", "nosuch:n=8"}, false, cli.ExitMismatch, "nosuch"},
		{"unknown algorithm", []string{"-algos", "nope"}, false, cli.ExitMismatch, "nope"},
		{"slo holds", short, true, cli.ExitOK, "10 sent, 10 ok, 0 errors"},
		{"slo fails", append([]string{"-slo-p99", "1ns"}, short...), true, cli.ExitFailure, "SLO: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.args
			out := filepath.Join(t.TempDir(), "load.json")
			if tc.live {
				s := serve.NewServer(serve.Options{MaxSweeps: 8, Log: log.New(io.Discard, "", 0)})
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				args = append([]string{"-target", ts.URL, "-out", out}, args...)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("exit %d, want %d with %q in stderr:\n%s", code, tc.code, tc.want, stderr.String())
			}
			if !tc.live {
				return
			}
			b, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rep struct {
				Sent int64 `json:"sent"`
				Spec struct {
					PlannedSlots int64  `json:"planned_slots"`
					Sender       string `json:"sender"`
				} `json:"spec"`
				Server struct {
					SweepRequestsTotal int64 `json:"sweep_requests_total"`
				} `json:"server"`
			}
			if err := json.Unmarshal(b, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Sent == 0 || rep.Sent != rep.Spec.PlannedSlots || rep.Server.SweepRequestsTotal != rep.Sent || rep.Spec.Sender != "http" {
				t.Errorf("report sent %d, planned %d, server sweep requests %d, sender %q; want sent = planned = server requests and sender http",
					rep.Sent, rep.Spec.PlannedSlots, rep.Server.SweepRequestsTotal, rep.Spec.Sender)
			}
		})
	}
}

// Package cli is the shared plumbing of the cmd/ binaries: the exit-code
// contract, repeatable list flags and scenario-registry listing. mmrun,
// mmsweep, mmserve, mmloadgen, mmcayley, mmexperiments and mmadversary all
// speak through it, so the conventions stay identical across tools. (The
// durable sweep output file is sweep.Output.)
//
// The exit-code contract is load-bearing for supervisors (human and
// programmatic): 0 is success, 1 is a failure that a retry or -resume may
// fix (sweep errors, I/O errors, contract violations), and 2 is a
// configuration mismatch or usage error that retrying cannot fix — a
// supervisor that sees 2 must stop restarting.
package cli

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/gen"
	"repro/internal/sweep"
	"repro/internal/sweep/shard"
)

// The exit codes every cmd/ binary maps its outcomes onto.
const (
	ExitOK       = 0
	ExitFailure  = 1 // runtime failure; retry or -resume may succeed
	ExitMismatch = 2 // configuration mismatch or bad usage; retrying cannot fix it
)

// Classify maps an error to its exit code: configuration mismatches
// (sweep.MismatchError, or anything the shard supervisor already
// classified permanent) exit ExitMismatch, everything else ExitFailure.
func Classify(err error) int {
	var mm *sweep.MismatchError
	if errors.As(err, &mm) || shard.IsPermanent(err) {
		return ExitMismatch
	}
	return ExitFailure
}

// StringList collects a repeatable string flag (flag.Var), e.g. mmsweep's
// -grid.
type StringList []string

// String implements flag.Value.
func (l *StringList) String() string { return strings.Join(*l, "; ") }

// Set implements flag.Value.
func (l *StringList) Set(v string) error { *l = append(*l, v); return nil }

// SplitList splits a comma-separated flag value into its non-empty parts.
func SplitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// PrintScenarios writes the scenario registry listing shared by mmrun
// -scenario list and mmsweep -grid list: one family per line with its doc
// string and parameter defaults.
func PrintScenarios(w io.Writer) {
	for _, s := range gen.All() {
		fmt.Fprintf(w, "%-16s %s\n  defaults: %s\n", s.Name, s.Doc, s.Params)
	}
}

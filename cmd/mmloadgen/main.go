// Command mmloadgen drives sustained mixed-scenario traffic at a target
// rate and reports client- AND server-side latency quantiles side by
// side — the macro-benchmark companion to mmserve.
//
//	mmserve -addr 127.0.0.1:8091 &
//	mmloadgen -target http://127.0.0.1:8091 \
//	    -rate 50 -ramp-up 10s -hold 60s -ramp-down 10s \
//	    -slo-p99 250ms -out BENCH_load.json
//
// The pacer emits request slots through a linear ramp-up / hold /
// ramp-down profile; each slot draws a weighted scenario cell from the
// traffic mix (every registered family by default) and issues it as a
// single-cell sweep. -max-inflight bounds concurrency; when the bound is
// hit, the default policy skips the slot (the offered rate stays honest)
// and -queue blocks instead. The run replays: the same seed, mix and
// profile produce the same request sequence, and each request carries a
// value-addressed sweep seed so the server returns byte-identical bodies.
//
// While the run streams, the target's /metrics endpoint is scraped so
// the final JSON report places mmserve's own request histogram next to
// the client-observed one. With -slo-p99 / -slo-errors set, the report's
// SLO block decides the exit code: 0 when every bound holds, 1 when one
// fails. Usage errors exit 2.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/loadgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is mmloadgen with its arguments and output streams passed in; it
// returns the process exit code (see internal/cli).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mmloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "http://127.0.0.1:8091", "mmserve base URL (also scraped for server-side quantiles)")
	rate := fs.Float64("rate", 20, "peak request rate, requests/second")
	rampUp := fs.Duration("ramp-up", 5*time.Second, "linear ramp from 0 to -rate")
	hold := fs.Duration("hold", 30*time.Second, "time at -rate")
	rampDown := fs.Duration("ramp-down", 5*time.Second, "linear ramp from -rate to 0")
	maxInFlight := fs.Int("max-inflight", 8, "outstanding requests at once (0 = unbounded)")
	queue := fs.Bool("queue", false, "when -max-inflight is reached, queue slots instead of skipping them")
	var mixFlags cli.StringList
	fs.Var(&mixFlags, "mix", "weighted mix entry 'spec[@weight]', repeatable (e.g. 'regular:n=256,k=4@3'); default: every family at smoke size")
	algos := fs.String("algos", "greedy", "comma-separated algorithms crossed with the -mix specs")
	seed := fs.Int64("seed", 1, "mix seed; the same seed+mix+profile replays the same request sequence")
	scrape := fs.Duration("scrape", 2*time.Second, "mid-run /metrics scrape interval (0 = final scrape only)")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	sloP99 := fs.Duration("slo-p99", 0, "fail (exit 1) if client p99 exceeds this (0 = no latency SLO)")
	sloErrors := fs.Float64("slo-errors", 0, "fail (exit 1) if errors/sent exceeds this rate (0 = no errors allowed)")
	noSLO := fs.Bool("no-slo", false, "report only; never fail the exit code on SLO bounds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitMismatch
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mmloadgen: unexpected arguments %q\n", fs.Args())
		return cli.ExitMismatch
	}

	base := strings.TrimSuffix(*target, "/")
	spec := loadgen.Spec{
		Profile: loadgen.Profile{
			Rate:     *rate,
			RampUp:   *rampUp,
			Hold:     *hold,
			RampDown: *rampDown,
		},
		Seed:           *seed,
		MaxInFlight:    *maxInFlight,
		Sender:         &loadgen.HTTPSender{Base: base},
		MetricsURL:     base + "/metrics",
		ScrapeInterval: *scrape,
	}
	if *queue {
		spec.Policy = loadgen.Queue
	}
	if !*noSLO {
		spec.SLO = &loadgen.SLO{MaxP99Seconds: sloP99.Seconds(), MaxErrorRate: *sloErrors}
	}

	mix, err := parseMix(mixFlags, cli.SplitList(*algos))
	if err != nil {
		fmt.Fprintf(stderr, "mmloadgen: %v\n", err)
		return cli.ExitMismatch
	}
	// Validate up front so an unknown family/algorithm or bad weight is a
	// usage error (exit 2), not a run failure.
	if _, err := loadgen.NewMix(*seed, mix); err != nil {
		fmt.Fprintf(stderr, "mmloadgen: %v\n", err)
		return cli.ExitMismatch
	}
	spec.Mix = mix

	// SIGINT/SIGTERM stop pacing; in-flight requests finish and the
	// report still covers what ran.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stderr, "mmloadgen: %d slots over %s (%d in flight, %s policy)\n",
		spec.Profile.Slots(), spec.Profile.Duration(), spec.MaxInFlight, spec.Policy)
	report, runErr := loadgen.Run(ctx, spec)
	if report != nil {
		report.Date = time.Now().UTC().Format("2006-01-02")
		if err := writeReport(*out, stdout, report); err != nil {
			fmt.Fprintf(stderr, "mmloadgen: %v\n", err)
			return cli.ExitFailure
		}
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "mmloadgen: %v\n", runErr)
		return cli.ExitFailure
	}
	if report.SLO != nil && !report.SLO.Pass {
		for _, f := range report.SLO.Failures {
			fmt.Fprintf(stderr, "mmloadgen: SLO: %s\n", f)
		}
		return cli.ExitFailure
	}
	fmt.Fprintf(stderr, "mmloadgen: %d sent, %d ok, %d errors, %d skipped, %.1f req/s\n",
		report.Sent, report.OK, report.Errors, report.Skipped, report.ThroughputRPS)
	return cli.ExitOK
}

// parseMix expands -mix 'spec[@weight]' entries against the -algos list;
// no entries means the default all-families mix (still crossed with
// -algos when more than greedy is named).
func parseMix(specs []string, algos []string) ([]loadgen.MixEntry, error) {
	if len(algos) == 0 {
		algos = []string{"greedy"}
	}
	base := []loadgen.MixEntry{}
	if len(specs) == 0 {
		for _, e := range loadgen.DefaultMix() {
			base = append(base, loadgen.MixEntry{Spec: e.Spec, Weight: e.Weight})
		}
	}
	for _, s := range specs {
		spec, weightStr, hasWeight := strings.Cut(s, "@")
		weight := 1.0
		if hasWeight {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil {
				return nil, fmt.Errorf("mix entry %q: bad weight: %w", s, err)
			}
			weight = w
		}
		base = append(base, loadgen.MixEntry{Spec: spec, Weight: weight})
	}
	var mix []loadgen.MixEntry
	for _, b := range base {
		for _, algo := range algos {
			mix = append(mix, loadgen.MixEntry{Spec: b.Spec, Algo: algo, Weight: b.Weight})
		}
	}
	return mix, nil
}

// writeReport encodes the report to path ("" = stdout), indented for
// human and jq consumption alike.
func writeReport(path string, stdout io.Writer, report *loadgen.Report) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Command mmbench runs the repository's benchmark (see bench/README.md).
//
//	mmbench -workload rounds-heavy -seed 1 -seconds 25 -trace 0
//	    one run of one workload; the last line of output is its result
//	mmbench -seed 1 -out results.json
//	    every workload, each in a fresh child process
//	mmbench -repeat 10 -out repeat.json
//	    ten rounds of every workload on seeds 1..10, alternating the
//	    workload order, with each metric's median and quartiles
//	mmbench -compare parent.json change.json
//	    one verdict per (metric, workload) between two -repeat files
//
// Flags may be written with one dash or two.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"syscall"
	"text/tabwriter"

	"repro/bench"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("mmbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed; -repeat uses seed, seed+1, …")
	seconds := fs.Float64("seconds", 25, "measuring time of one run (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics instead of end-to-end ones")
	dir := fs.String("dir", ".bench_build", "directory for scratch files, traces and child reports")
	out := fs.String("out", "", "write every run and the summary as JSON to this file")
	repeat := fs.Int("repeat", 1, "rounds of every workload")
	commit := fs.String("commit", "", "commit to record in -out")
	report := fs.String("report", "", "write this run's full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: parent then change")
	benchmark := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds (for -compare)")
	// The flag package stops at the first argument that is not a flag; parse
	// again after each, so the -compare files may come before other flags.
	var files []string
	for args := os.Args[1:]; ; args = fs.Args()[1:] {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		files = append(files, fs.Arg(0))
	}
	if !*compare && len(files) > 0 {
		fmt.Fprintf(os.Stderr, "mmbench: unexpected arguments %q\n", files)
		return 2
	}
	goruntime.GOMAXPROCS(goruntime.NumCPU())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *compare:
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "mmbench: -compare needs two files: parent.json change.json")
			return 2
		}
		return runCompare(files[0], files[1], *benchmark)
	case *workload != "":
		rep, err := bench.Run(ctx, bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: *dir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmbench:", err)
			return 1
		}
		printReport(os.Stdout, rep)
		if *report != "" {
			if err := writeJSON(*report, rep); err != nil {
				fmt.Fprintln(os.Stderr, "mmbench:", err)
				return 1
			}
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmbench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !rep.Result.Correct {
			return 1
		}
		return 0
	}
	return runAll(ctx, *seed, *seconds, *trace, *repeat, *dir, *out, *commit)
}

// runAll runs every workload repeat times, each run in a child process so
// set-up time and peak RSS belong to one workload alone.
func runAll(ctx context.Context, seed int64, seconds float64, trace, repeat int, dir, out, commit string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		return 1
	}
	workloads := bench.Workloads()
	res := bench.Repeat{Host: bench.ThisHost(), Commit: commit, Seed: seed, Seconds: seconds}
	code := 0
	for r := 0; r < repeat; r++ {
		order := append([]bench.Workload(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		runSeed := seed + int64(r)
		for _, w := range order {
			path := filepath.Join(dir, "report-"+w.Name+".json")
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.FormatInt(runSeed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-dir", dir, "-report", path)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			fmt.Fprintf(os.Stderr, "== %s seed %d\n", w.Name, runSeed)
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: %s seed %d: %v\n", w.Name, runSeed, err)
				code = 1
			}
			var rep bench.Report
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: %s seed %d: no report: %v\n", w.Name, runSeed, err)
				code = 1
				continue
			}
			_ = os.Remove(path) // so a later child that fails before writing cannot pass this report off as its own
			res.Runs = append(res.Runs, &rep)
		}
	}
	res.Summary = bench.Summarize(res.Runs)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tq1\tq3\tspread\truns")
	for _, s := range res.Summary {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.6g\t%.6g\t%.1f%%\t%d\n",
			s.Workload, s.Metric, s.Median, s.Unit, s.Q1, s.Q3, 100*s.Spread, len(s.Values))
	}
	tw.Flush()
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(os.Stderr, "mmbench:", err)
			return 1
		}
	}
	return code
}

// runCompare prints one verdict per (metric, workload) and fails when any
// pair regressed.
func runCompare(parentPath, changePath, benchmark string) int {
	var parent, change bench.Repeat
	for _, f := range []struct {
		path string
		into *bench.Repeat
	}{{parentPath, &parent}, {changePath, &change}} {
		b, err := os.ReadFile(f.path)
		if err == nil {
			err = json.Unmarshal(b, f.into)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmbench:", err)
			return 2
		}
	}
	bounds, err := bench.LoadBounds(benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tparent\tchange\tparent spread\tchange spread\twins\tverdict")
	code := 0
	for _, v := range bench.Compare(&parent, &change, bounds) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.1f%%\t%d/%d\t%s\n", v.Metric, v.Workload, v.Parent, v.Change,
			100*v.ParentSpread, 100*v.ChangeSpread, v.Wins, v.Pairs, v.Verdict)
		if v.Verdict == "regressed" {
			code = 1
		}
	}
	tw.Flush()
	return code
}

// printReport writes a run's metrics, sample counts, findings and failures
// as readable lines.
func printReport(w io.Writer, rep *bench.Report) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  nproc %d  gomaxprocs %d  %s  %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.Go, rep.Host.CPU)
	defs := bench.EndToEnd
	if rep.Trace {
		defs = bench.PerLayer
	}
	for _, d := range defs {
		m := rep.Result.Metrics[d.Name]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v  samples %v\n",
		rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct, rep.Samples)
	fmt.Fprintf(w, "  digest %s\n", rep.Digest)
	for _, f := range rep.Findings {
		fmt.Fprintln(w, "  "+f)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED: "+f)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

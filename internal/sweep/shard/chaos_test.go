package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// Chaos parameters pinned by TestChaosSupervisedByteIdentical. Seed 36 is
// chosen (and asserted below, by pre-simulating the schedule) to deliver at
// least two real SIGKILLs and exactly one hang across the four workers —
// the acceptance trajectory — while still converging within the attempt
// budget.
const (
	chaosSeed     = 36
	chaosKillProb = 0.25
	chaosHangProb = 0.12
)

// chaosTrajectory pre-simulates the supervised run's fault schedule from
// the injector's pure Decide function: for each shard, walk attempts; the
// first fault in an attempt ends it with the rows before the fault point
// durable (the worker flushes per row and the kill/hang strikes before the
// next emission). Returns kills, hangs, and whether every shard completes
// within maxAttempts.
func chaosTrajectory(inj *FaultInjector, perShard []int, maxAttempts int) (kills, hangs int, converges bool) {
	converges = true
	for s := range perShard {
		completed, done := 0, false
		for a := 0; a < maxAttempts && !done; a++ {
			fault, at := faultNone, -1
			for c := 0; c < perShard[s]-completed; c++ {
				if d := inj.Decide(s, a, c); d != faultNone {
					fault, at = d, c
					break
				}
			}
			if fault == faultNone {
				done = true
				continue
			}
			completed += at
			if fault == faultKill {
				kills++
			} else {
				hangs++
			}
		}
		if !done {
			converges = false
		}
	}
	return kills, hangs, converges
}

// TestHelperShardWorker is not a test: it is the body of a fork/exec'd
// shard worker, re-executing this test binary. The supervisor's ExecConfig
// launches it with -test.run=TestHelperShardWorker$ and parameters in the
// environment; without the guard variable it is a no-op.
func TestHelperShardWorker(t *testing.T) {
	if os.Getenv("REPRO_SHARD_HELPER") != "1" {
		t.Skip("helper process body, not a test")
	}
	spec, err := ParseSpec(os.Getenv("REPRO_SHARD_SPEC"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	attempt, _ := strconv.Atoi(os.Getenv("REPRO_SHARD_ATTEMPT"))
	cfg := shardConfig()
	cfg.Shard = &spec
	if os.Getenv("REPRO_SHARD_FOREIGN") == "1" {
		cfg.Seed++ // misconfigured worker: wrong seed universe
	}
	var inj *FaultInjector
	if os.Getenv("REPRO_SHARD_CHAOS") == "1" {
		inj = &FaultInjector{
			Seed:     chaosSeed,
			KillProb: chaosKillProb,
			HangProb: chaosHangProb,
			Hang:     time.Hour, // far past the lease: only the supervisor's kill ends it
			// Kill: nil — the real thing: SIGKILL this whole process.
		}
	}
	_, err = RunWorker(context.Background(), cfg, os.Getenv("REPRO_SHARD_PATH"), WorkerOptions{
		Attempt:  attempt,
		Injector: inj,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		var mm *sweep.MismatchError
		if errors.As(err, &mm) {
			os.Exit(2) // the permanent-failure convention
		}
		os.Exit(1)
	}
	os.Exit(0)
}

// execConfigFor wires the helper process as a fork/exec worker fleet for
// the given output path.
func execConfigFor(t *testing.T, out string, n int, extraEnv ...string) ExecConfig {
	t.Helper()
	stderr := io.Writer(io.Discard)
	if testing.Verbose() {
		stderr = os.Stderr
	}
	return ExecConfig{
		Bin:    os.Args[0],
		Args:   func(int, int) []string { return []string{"-test.run=TestHelperShardWorker$"} },
		Stderr: stderr,
		Env: func(shardIdx, attempt int) []string {
			return append([]string{
				"REPRO_SHARD_HELPER=1",
				"REPRO_SHARD_SPEC=" + fmt.Sprintf("%d/%d", shardIdx, n),
				"REPRO_SHARD_ATTEMPT=" + strconv.Itoa(attempt),
				"REPRO_SHARD_PATH=" + Path(out, shardIdx, n),
			}, extraEnv...)
		},
	}
}

// TestChaosSupervisedByteIdentical is the acceptance test: a supervised
// 4-worker fork/exec sweep under seeded fault injection — real SIGKILLs
// that destroy worker processes mid-write, plus a hang the lease must
// detect and kill — produces merged JSONL byte-identical to an
// uninterrupted single-process sweep.
func TestChaosSupervisedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and waits out a lease timeout")
	}
	cfg := shardConfig()
	want := singleProcessJSONL(t, cfg)
	const n = 4
	const maxAttempts = 6

	// Assert the pinned seed actually produces the acceptance trajectory
	// before running it: the schedule is a pure function, so if this holds
	// here it holds in the processes below.
	plan, err := sweep.CellPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perShard := make([]int, n)
	for i, r := range gen.SplitCells(len(plan), n) {
		perShard[i] = r.Len()
	}
	inj := &FaultInjector{Seed: chaosSeed, KillProb: chaosKillProb, HangProb: chaosHangProb}
	kills, hangs, converges := chaosTrajectory(inj, perShard, maxAttempts)
	if kills < 2 || hangs < 1 || !converges {
		t.Fatalf("chaos seed %d draws %d kills, %d hangs, converges=%v — need ≥2 kills, ≥1 hang, convergence",
			chaosSeed, kills, hangs, converges)
	}
	t.Logf("chaos schedule: %d SIGKILLs, %d hangs across %d shards", kills, hangs, n)

	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.jsonl")
	var log lockedBuffer
	sup := &Supervisor{
		Count:        n,
		Launch:       execConfigFor(t, out, n, "REPRO_SHARD_CHAOS=1").Launcher(),
		Out:          out,
		LeaseTimeout: 2 * time.Second,
		PollInterval: 100 * time.Millisecond,
		MaxAttempts:  maxAttempts,
		BackoffBase:  20 * time.Millisecond,
		BackoffMax:   200 * time.Millisecond,
		Seed:         chaosSeed,
		Log:          &log,
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatalf("%v\nsupervisor log:\n%s", err, log.String())
	}
	var merged bytes.Buffer
	rows, err := Merge(&merged, cfg, Paths(out, n))
	if err != nil {
		t.Fatalf("%v\nsupervisor log:\n%s", err, log.String())
	}
	if rows != len(plan) {
		t.Errorf("merged %d rows, want %d", rows, len(plan))
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatalf("merged JSONL differs from the uninterrupted single-process sweep\nsupervisor log:\n%s", log.String())
	}
	if hangs > 0 && !bytes.Contains(log.Bytes(), []byte("lease expired")) {
		t.Errorf("the injected hang was never detected by the lease\nlog:\n%s", log.String())
	}
}

// TestExecWorkerPermanentExitCode: a fork/exec worker that exits 2 (the
// config-mismatch convention) is classified permanent — one launch, no
// retries, run fails.
func TestExecWorkerPermanentExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	cfg := shardConfig()
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.jsonl")
	// Seed the shard file from the true config, then supervise a
	// misconfigured fleet over it: every worker must refuse permanently.
	scfg := cfg
	scfg.Shard = &sweep.ShardSpec{Index: 0, Count: 1}
	if _, err := RunWorker(context.Background(), scfg, Path(out, 0, 1), WorkerOptions{}); err != nil {
		t.Fatal(err)
	}
	var log lockedBuffer
	sup := &Supervisor{
		Count:        1,
		Launch:       execConfigFor(t, out, 1, "REPRO_SHARD_FOREIGN=1").Launcher(),
		Out:          out,
		LeaseTimeout: 5 * time.Second,
		MaxAttempts:  4,
		BackoffBase:  10 * time.Millisecond,
		Log:          &log,
	}
	err := sup.Run(context.Background())
	if err == nil {
		t.Fatal("misconfigured worker fleet did not fail")
	}
	if !IsPermanent(err) {
		t.Fatalf("exit code 2 not classified permanent: %v", err)
	}
	if bytes.Contains(log.Bytes(), []byte("attempt 1")) {
		t.Errorf("permanent failure was retried:\n%s", log.String())
	}
}

// lockedBuffer is a goroutine-safe log sink for supervisor output.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
)

// quickSupervisor builds a Supervisor with test-speed timings over shard
// files in a fresh directory.
func quickSupervisor(t *testing.T, n int, launch Launcher) *Supervisor {
	return &Supervisor{
		Count:        n,
		Launch:       launch,
		Out:          filepath.Join(t.TempDir(), "sweep.jsonl"),
		LeaseTimeout: 400 * time.Millisecond,
		PollInterval: 50 * time.Millisecond,
		MaxAttempts:  4,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   40 * time.Millisecond,
		Seed:         1,
	}
}

// TestSupervisorRestartsCrashedWorker: a worker that dies on its first two
// attempts is restarted with backoff and the shard still completes; the
// attempt sequence is visible to the launcher.
func TestSupervisorRestartsCrashedWorker(t *testing.T) {
	var launches int32
	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		atomic.AddInt32(&launches, 1)
		if attempt < 2 {
			return fmt.Errorf("simulated crash on attempt %d", attempt)
		}
		return nil
	})
	if err := quickSupervisor(t, 1, launch).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&launches); got != 3 {
		t.Fatalf("launched %d attempts, want 3", got)
	}
}

// TestSupervisorLeaseTimeoutKillsHungWorker: a worker whose shard file
// stops changing is killed at lease expiry and its restart completes
// the shard. The hung attempt must observe the kill (context
// cancellation), not linger.
func TestSupervisorLeaseTimeoutKillsHungWorker(t *testing.T) {
	var hungSawKill atomic.Bool
	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		if attempt == 0 {
			<-ctx.Done() // hang: no progress until killed
			hungSawKill.Store(true)
			return ctx.Err()
		}
		return nil
	})
	var log bytes.Buffer
	sup := quickSupervisor(t, 1, launch)
	sup.Log = &log
	start := time.Now()
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !hungSawKill.Load() {
		t.Error("hung worker was never killed")
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Errorf("completed in %s — the lease cannot have expired", elapsed)
	}
	if !strings.Contains(log.String(), "lease expired") {
		t.Errorf("log does not record the lease expiry:\n%s", log.String())
	}
}

// superviseSlowWriter supervises one shard whose worker appends a short
// row to its shard file every interval, rows times, after cutting the
// file to empty as a resume cuts a torn tail. The worker never finishes
// within one lease, so the test fails unless the file's changes renew it:
// exactly one launch, and no error.
func superviseSlowWriter(t *testing.T, sup *Supervisor, rows int, every time.Duration) {
	t.Helper()
	var launches atomic.Int32
	path := Path(sup.Out, 0, 1)
	sup.Launch = goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		launches.Add(1)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		for i := 0; i < rows; i++ {
			select {
			case <-time.After(every):
			case <-ctx.Done():
				return ctx.Err()
			}
			if i == 0 {
				if err := f.Truncate(0); err != nil {
					return err
				}
			}
			if _, err := f.WriteString("row\n"); err != nil {
				return err
			}
		}
		return nil
	})
	err := sup.Run(context.Background())
	if got := launches.Load(); err != nil || got != 1 {
		t.Fatalf("slow but progressing worker launched %d times (err %v), want once", got, err)
	}
}

// TestSupervisorFileGrowthRenewsLease: a worker whose shard file keeps
// growing is alive by definition — the file IS the progress — and must
// not be killed, though it takes 1 s against a 400 ms lease.
func TestSupervisorFileGrowthRenewsLease(t *testing.T) {
	superviseSlowWriter(t, quickSupervisor(t, 1, nil), 10, 100*time.Millisecond)
}

// TestSupervisorLeaseExpiryStatsFile: with a poll interval longer than the
// lease, no poll ever sees the file grow; only the look at the file when
// the lease fires can tell the rows written since apart from a hang.
func TestSupervisorLeaseExpiryStatsFile(t *testing.T) {
	sup := quickSupervisor(t, 1, nil)
	sup.PollInterval = time.Hour
	superviseSlowWriter(t, sup, 7, 150*time.Millisecond)
}

// TestSupervisorShrinkRenewsLease: a worker that cuts a pre-seeded file
// longer than anything it then writes makes progress the file's size shows
// only as change, never as growth past its first size.
func TestSupervisorShrinkRenewsLease(t *testing.T) {
	sup := quickSupervisor(t, 1, nil)
	if err := os.WriteFile(Path(sup.Out, 0, 1), bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	superviseSlowWriter(t, sup, 10, 100*time.Millisecond)
}

// TestSupervisorPermanentStopsRetrying: a configuration mismatch must not
// be retried — one launch, the error surfaces, and sibling shards are
// cancelled rather than run to completion.
func TestSupervisorPermanentStopsRetrying(t *testing.T) {
	var launches0, kills1 int32
	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		if shardIdx == 0 {
			atomic.AddInt32(&launches0, 1)
			return &sweep.MismatchError{Field: "seed", Cell: "x", Want: "1", Got: "2"}
		}
		<-ctx.Done() // long-running sibling: must be cancelled, not awaited
		atomic.AddInt32(&kills1, 1)
		return ctx.Err()
	})
	err := quickSupervisor(t, 2, launch).Run(context.Background())
	var mm *sweep.MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("error is not the mismatch: %v", err)
	}
	if got := atomic.LoadInt32(&launches0); got != 1 {
		t.Fatalf("permanent failure retried (%d launches)", got)
	}
	if got := atomic.LoadInt32(&kills1); got != 1 {
		t.Fatalf("sibling shard not cancelled exactly once (%d)", got)
	}
}

// TestSupervisorGivesUpAfterMaxAttempts: a shard that keeps crashing is
// abandoned with an error naming the attempt budget and the last failure.
func TestSupervisorGivesUpAfterMaxAttempts(t *testing.T) {
	var launches int32
	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		atomic.AddInt32(&launches, 1)
		return fmt.Errorf("always down")
	})
	err := quickSupervisor(t, 1, launch).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "always down") {
		t.Errorf("error does not carry the last failure: %v", err)
	}
	if got := atomic.LoadInt32(&launches); got != 4 {
		t.Fatalf("launched %d attempts, want 4", got)
	}
}

// TestBackoffDeterministicJitter: delays double to the cap, stay within
// the ±25% jitter band, reproduce exactly for a seed, and differ across
// shards so synchronized crash storms spread out.
func TestBackoffDeterministicJitter(t *testing.T) {
	s := &Supervisor{BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second, Seed: 7}
	for attempt := 1; attempt <= 8; attempt++ {
		nominal := 100 * time.Millisecond << (attempt - 1)
		if nominal > time.Second {
			nominal = time.Second
		}
		d := s.backoff(3, attempt)
		if d != s.backoff(3, attempt) {
			t.Fatal("backoff is not deterministic")
		}
		lo := time.Duration(float64(nominal) * 0.75)
		hi := time.Duration(float64(nominal) * 1.25)
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %s outside [%s, %s]", attempt, d, lo, hi)
		}
	}
	if s.backoff(0, 1) == s.backoff(1, 1) {
		t.Error("different shards share a jitter — crash storms would restart in lockstep")
	}
}

// TestSupervisorEndToEndInProcess: the full library loop — four in-process
// workers running real shard sweeps, one crashing twice with torn-tail
// debris, one hanging past the lease — still converges to a merged file
// byte-identical to the single-process run.
func TestSupervisorEndToEndInProcess(t *testing.T) {
	cfg := shardConfig()
	want := singleProcessJSONL(t, cfg)
	dir := t.TempDir()
	const n = 4
	paths := Paths(filepath.Join(dir, "sweep.jsonl"), n)

	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		switch {
		case shardIdx == 1 && attempt == 0:
			// Crash, leaving the SIGKILL debris of a torn half-row the
			// restart must truncate away.
			f, err := os.OpenFile(paths[1], os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return err
			}
			f.WriteString(`{"scenario":"path","params":"k=`)
			f.Close()
			return fmt.Errorf("simulated crash mid-write")
		case shardIdx == 1 && attempt == 1:
			return fmt.Errorf("simulated crash on restart")
		case shardIdx == 2 && attempt == 0:
			<-ctx.Done() // hang: no progress until the lease kill lands
			return ctx.Err()
		}
		scfg := cfg
		scfg.Shard = &sweep.ShardSpec{Index: shardIdx, Count: n}
		_, err := RunWorker(ctx, scfg, paths[shardIdx], WorkerOptions{Attempt: attempt})
		return err
	})
	sup := quickSupervisor(t, n, launch)
	sup.Out = filepath.Join(dir, "sweep.jsonl")
	var log bytes.Buffer
	sup.Log = &log
	if err := sup.Run(context.Background()); err != nil {
		t.Fatalf("%v\nlog:\n%s", err, log.String())
	}
	var merged bytes.Buffer
	if _, err := Merge(&merged, cfg, paths); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), want) {
		t.Fatal("merged output differs from the single-process run")
	}
	if !strings.Contains(log.String(), "lease expired") {
		t.Errorf("hang was not detected via the lease:\n%s", log.String())
	}
}

// goLauncher adapts an in-process worker function into a Launcher — the
// topology the package's tests use. Each attempt runs as a
// goroutine under its own cancellable context; Kill cancels it, which is
// the in-process analogue of SIGKILL: the worker's stream aborts at its
// next cell boundary and the shard file is left a clean resumable prefix.
func goLauncher(run func(ctx context.Context, shardIdx, attempt int) error) Launcher {
	return func(ctx context.Context, shardIdx, attempt int) (Handle, error) {
		wctx, cancel := context.WithCancel(ctx)
		h := &goHandle{
			done:   make(chan error, 1),
			cancel: cancel,
		}
		go func() {
			err := run(wctx, shardIdx, attempt)
			if err != nil && !IsPermanent(err) {
				// Keep mismatches permanent; everything else retries.
				err = fmt.Errorf("worker: %w", err)
			}
			h.done <- err
		}()
		return h, nil
	}
}

// goHandle is the in-process worker handle.
type goHandle struct {
	done   chan error
	cancel context.CancelFunc
}

func (h *goHandle) Done() <-chan error { return h.done }
func (h *goHandle) Kill()              { h.cancel() }

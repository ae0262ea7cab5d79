package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// Default supervision knobs; see the Supervisor fields for semantics.
const (
	DefaultLeaseTimeout = 30 * time.Second
	DefaultMaxAttempts  = 5
	DefaultBackoffBase  = 250 * time.Millisecond
	DefaultBackoffMax   = 10 * time.Second
)

// Permanent wraps a worker failure that restarting cannot fix — a
// configuration mismatch against existing shard rows, reported by exit
// code 2 from a fork/exec worker or a *sweep.MismatchError from an
// in-process one. The supervisor stops retrying the shard, cancels its
// siblings, and fails the run.
type Permanent struct{ Err error }

// Error implements error.
func (p *Permanent) Error() string { return fmt.Sprintf("permanent worker failure: %v", p.Err) }

// Unwrap exposes the underlying failure.
func (p *Permanent) Unwrap() error { return p.Err }

// IsPermanent reports whether err is a failure restarts cannot fix.
func IsPermanent(err error) bool {
	var p *Permanent
	var mm *sweep.MismatchError
	return errors.As(err, &p) || errors.As(err, &mm)
}

// errLeaseExpired marks a lease-timeout kill, so restart logs can tell a
// hang from a crash.
type errLeaseExpired struct {
	timeout time.Duration
	exit    error
}

func (e *errLeaseExpired) Error() string {
	return fmt.Sprintf("lease expired after %s (hung worker killed, exit: %v)", e.timeout, e.exit)
}

// Handle is a running worker attempt as the supervisor sees it.
type Handle interface {
	// Done delivers the attempt's exit status exactly once: nil for a
	// completed shard, *Permanent for a failure restarts cannot fix, any
	// other error for a crash worth retrying.
	Done() <-chan error
	// Kill hard-stops a hung worker (SIGKILL for processes, context
	// cancellation for goroutines); Done still delivers afterwards.
	Kill()
}

// Launcher starts one attempt of one shard's worker.
type Launcher func(ctx context.Context, shardIdx, attempt int) (Handle, error)

// Supervisor runs the N workers of a sharded sweep and keeps them alive:
// one lease per shard, renewed whenever the shard file's size changes (a
// worker flushes every row it emits, so the file is its progress); a
// worker whose lease expires is presumed hung and killed; a dead worker
// (crashed, killed, or SIGKILLed by chaos) is relaunched after an
// exponentially backed-off, deterministically jittered delay, resuming
// its shard file through the ordinary resume machinery. Failures that
// restarting cannot fix (Permanent / sweep.MismatchError) stop the run
// immediately; a shard that keeps dying is abandoned after MaxAttempts and
// fails the run, cancelling its siblings — their shard files remain valid
// resumable prefixes.
type Supervisor struct {
	// Count is the number of shards (== workers).
	Count int
	// Launch starts one worker attempt.
	Launch Launcher
	// Out is the merged output path; shard i's file is Path(Out, i, Count).
	Out string
	// LeaseTimeout is how long a shard file may keep its size before its
	// worker is declared hung and killed (0 = DefaultLeaseTimeout). It
	// must comfortably exceed the longest single cell, since a worker
	// mid-cell writes no rows.
	LeaseTimeout time.Duration
	// PollInterval is the shard-file stat cadence (0 = LeaseTimeout/4).
	PollInterval time.Duration
	// MaxAttempts bounds launches per shard (0 = DefaultMaxAttempts).
	MaxAttempts int
	// BackoffBase doubles per consecutive failure up to BackoffMax
	// (0 = DefaultBackoffBase/DefaultBackoffMax).
	BackoffBase, BackoffMax time.Duration
	// Seed drives the backoff jitter — deterministic, so a supervised
	// run's restart schedule is reproducible.
	Seed int64
	// Log receives one line per supervision event (nil = discard).
	Log io.Writer
	// Metrics, when non-nil, records the fault history — restarts, lease
	// expiries, backoff waits, per-shard attempt ordinals — into its obs
	// registry (mmsweep -supervise dumps it via -metrics-out).
	Metrics *Metrics

	logMu sync.Mutex
}

// Run supervises all shards to completion and returns the first (lowest-
// shard) failure, or nil when every shard completed. Any shard failure
// cancels the remaining shards' workers; their files stay resumable.
func (s *Supervisor) Run(ctx context.Context) error {
	if s.Count < 1 {
		return fmt.Errorf("shard: supervisor needs Count ≥ 1")
	}
	if s.Launch == nil {
		return fmt.Errorf("shard: supervisor needs a Launcher")
	}
	if s.Out == "" {
		return fmt.Errorf("shard: supervisor needs Out")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, s.Count)
	var wg sync.WaitGroup
	for i := 0; i < s.Count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.superviseShard(ctx, i); err != nil {
				errs[i] = err
				cancel() // fail fast: siblings stop at their next cell
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		// Report the lowest-shard real failure; a bare context
		// cancellation on a sibling is the echo of that failure, not news.
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// superviseShard drives one shard through launch/monitor/restart cycles.
func (s *Supervisor) superviseShard(ctx context.Context, shardIdx int) error {
	maxAttempts := s.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			d := s.backoff(shardIdx, attempt)
			s.logf("shard %d: attempt %d in %s (previous: %v)", shardIdx, attempt, d, lastErr)
			select {
			case <-time.After(d):
				s.Metrics.recordBackoff(d)
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		s.Metrics.recordAttempt(shardIdx, attempt)
		h, err := s.Launch(ctx, shardIdx, attempt)
		if err != nil {
			lastErr = err
			continue
		}
		err = s.monitor(ctx, shardIdx, h)
		switch {
		case err == nil:
			if attempt > 0 {
				s.logf("shard %d: completed after %d restarts", shardIdx, attempt)
			}
			return nil
		case IsPermanent(err):
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("giving up after %d attempts: %w", maxAttempts, lastErr)
}

// monitor watches one attempt until it exits or its lease expires. The
// lease renews whenever a poll finds the shard file's size changed — any
// change, since a resume that cuts a torn tail shrinks it. At expiry the
// file is looked at once more, so a row written since the last poll still
// counts; only a file unchanged for a full timeout means the worker made
// no progress — hung, not slow — and it is killed.
func (s *Supervisor) monitor(ctx context.Context, shardIdx int, h Handle) error {
	timeout := s.LeaseTimeout
	if timeout <= 0 {
		timeout = DefaultLeaseTimeout
	}
	poll := s.PollInterval
	if poll <= 0 {
		poll = timeout / 4
	}
	lease := time.NewTimer(timeout)
	defer lease.Stop()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	renew := func() {
		if !lease.Stop() {
			select {
			case <-lease.C:
			default:
			}
		}
		lease.Reset(timeout)
	}
	path := Path(s.Out, shardIdx, s.Count)
	lastSize := fileSize(path)
	for {
		select {
		case <-ticker.C:
			if sz := fileSize(path); sz != lastSize {
				lastSize = sz
				renew()
			}
		case err := <-h.Done():
			return err
		case <-lease.C:
			if sz := fileSize(path); sz != lastSize {
				lastSize = sz
				renew()
				continue
			}
			s.logf("shard %d: lease expired after %s — killing hung worker", shardIdx, timeout)
			s.Metrics.recordLeaseExpiry()
			h.Kill()
			return &errLeaseExpired{timeout: timeout, exit: <-h.Done()}
		case <-ctx.Done():
			h.Kill()
			<-h.Done()
			return ctx.Err()
		}
	}
}

// fileSize returns the file's current size (-1 when it cannot be read, as
// before a worker's first attempt creates it).
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return -1
	}
	return fi.Size()
}

// backoff computes the delay before the given restart attempt: BackoffBase
// doubling per attempt, capped at BackoffMax, with a deterministic ±25%
// jitter derived from (Seed, shard, attempt) — restarting shards spread
// out without the schedule becoming irreproducible.
func (s *Supervisor) backoff(shardIdx, attempt int) time.Duration {
	base, max := s.BackoffBase, s.BackoffMax
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	u := unit(gen.SubSeed(s.Seed, "backoff", strconv.Itoa(shardIdx), strconv.Itoa(attempt)))
	return time.Duration(float64(d) * (0.75 + 0.5*u))
}

// logf writes one supervision event line (goroutine-safe).
func (s *Supervisor) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.Log, "supervisor: "+format+"\n", args...)
}

// GoLauncher adapts an in-process worker function into a Launcher — the
// topology the package's tests use. Each attempt runs as a
// goroutine under its own cancellable context; Kill cancels it, which is
// the in-process analogue of SIGKILL: the worker's stream aborts at its
// next cell boundary and the shard file is left a clean resumable prefix.
func GoLauncher(run func(ctx context.Context, shardIdx, attempt int) error) Launcher {
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

package shard

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSupervisorMetricsFaultHistory drives a two-shard run with a scripted
// fault history — shard 0 crashes twice, shard 1 hangs once — and checks
// the registry records exactly that: restarts, lease expiries, completed
// backoff waits, and the per-shard attempt ordinals.
func TestSupervisorMetricsFaultHistory(t *testing.T) {
	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		switch {
		case shardIdx == 0 && attempt < 2:
			return fmt.Errorf("simulated crash on attempt %d", attempt)
		case shardIdx == 1 && attempt == 0:
			<-ctx.Done() // hang until the lease kill
			return ctx.Err()
		}
		return nil
	})
	reg := obs.NewRegistry()
	sup := quickSupervisor(t, 2, launch)
	sup.Metrics = NewMetrics(reg)
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	m := sup.Metrics
	// Shard 0: attempts 0,1,2 → 2 restarts. Shard 1: attempts 0,1 → 1.
	if got := m.Restarts.Value(); got != 3 {
		t.Errorf("restarts = %d, want 3", got)
	}
	if got := m.LeaseExpiries.Value(); got != 1 {
		t.Errorf("lease expiries = %d, want 1", got)
	}
	// Every restart was preceded by one completed backoff sleep.
	if got := m.Backoff.Count(); got != 3 {
		t.Errorf("backoff waits = %d, want 3", got)
	}
	if m.Backoff.Sum() <= 0 {
		t.Error("backoff histogram recorded no time")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"shard_restarts_total 3",
		"shard_lease_expiries_total 1",
		"shard_backoff_seconds_count 3",
		`shard_attempts{shard="0"} 2`,
		`shard_attempts{shard="1"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestSupervisorMetricsFaultFreeZeroes pins eager registration: a run with
// no faults still exposes every family, at zero — an absent series and a
// zero series mean different things to a scraper.
func TestSupervisorMetricsFaultFreeZeroes(t *testing.T) {
	launch := goLauncher(func(ctx context.Context, shardIdx, attempt int) error {
		return nil
	})
	reg := obs.NewRegistry()
	sup := quickSupervisor(t, 1, launch)
	sup.Metrics = NewMetrics(reg)
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"shard_restarts_total 0",
		"shard_lease_expiries_total 0",
		"shard_backoff_seconds_count 0",
		`shard_attempts{shard="0"} 0`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("fault-free exposition missing %q:\n%s", line, out)
		}
	}
	// NewMetrics(nil) and a nil Metrics are no-ops, not panics.
	var nilM *Metrics = NewMetrics(nil)
	nilM.recordAttempt(0, 1)
	nilM.recordLeaseExpiry()
	nilM.recordBackoff(0)
}

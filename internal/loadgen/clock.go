package loadgen

import (
	"context"
	"time"
)

// Clock is the pacer's time seam: production runs on the wall clock,
// tests on a fake clock whose Sleep advances virtual time instantly —
// which is what makes the slot-schedule tests deterministic and free of
// time.Sleep.
type Clock interface {
	Now() time.Time
	// Sleep blocks until d has elapsed or ctx is done, reporting false on
	// cancellation.
	Sleep(ctx context.Context, d time.Duration) bool
}

// wallClock is the real-time clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

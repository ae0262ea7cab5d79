package loadgen

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// No test in this file sleeps on the wall clock: every schedule runs on
// a fakeClock whose Sleep advances virtual time instantly, so assertions
// about multi-minute profiles complete in microseconds.

func TestProfileSlots(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		want int
	}{
		{"hold only", Profile{Rate: 10, Hold: 5 * time.Second}, 50},
		{"symmetric trapezoid", Profile{Rate: 100, RampUp: time.Second, Hold: 2 * time.Second, RampDown: time.Second}, 300},
		{"pure triangle", Profile{Rate: 40, RampUp: 2 * time.Second, RampDown: 2 * time.Second}, 80},
		{"instant ramps", Profile{Rate: 7, Hold: 3 * time.Second}, 21},
		{"zero rate", Profile{Rate: 0, RampUp: time.Second, Hold: time.Minute, RampDown: time.Second}, 0},
		{"zero duration", Profile{Rate: 100}, 0},
		{"fractional total floors", Profile{Rate: 3, Hold: 2500 * time.Millisecond}, 7},
		{"sub-slot run", Profile{Rate: 1, Hold: 500 * time.Millisecond}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Slots(); got != tc.want {
				t.Fatalf("Slots() = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestSlotSchedulePerPhase pins the slot counts that land inside each
// phase of a ramped profile: the ramp-up integrates to Rate·U/2 slots,
// the hold to Rate·H, the ramp-down to Rate·D/2.
func TestSlotSchedulePerPhase(t *testing.T) {
	p := Profile{Rate: 100, RampUp: time.Second, Hold: 2 * time.Second, RampDown: time.Second}
	var inUp, inHold, inDown int
	last := time.Duration(-1)
	for i := 0; i < p.Slots(); i++ {
		at := p.SlotAt(i)
		if at <= last {
			t.Fatalf("slot %d fires at %v, not after slot %d at %v", i, at, i-1, last)
		}
		last = at
		switch {
		case at <= p.RampUp:
			inUp++
		case at <= p.RampUp+p.Hold:
			inHold++
		default:
			inDown++
		}
		if at > p.Duration()+time.Millisecond {
			t.Fatalf("slot %d fires at %v, past the profile end %v", i, at, p.Duration())
		}
	}
	if inUp != 50 || inHold != 200 || inDown != 50 {
		t.Fatalf("phase slot counts = %d/%d/%d, want 50/200/50", inUp, inHold, inDown)
	}
}

// TestSlotAtInstantRamp pins the degenerate profile shapes: a pure-hold
// profile spaces slots exactly 1/Rate apart, and a pure ramp fires its
// slots on the sqrt schedule.
func TestSlotAtInstantRamp(t *testing.T) {
	p := Profile{Rate: 10, Hold: time.Second}
	for i := 0; i < p.Slots(); i++ {
		want := time.Duration(float64(i+1) / p.Rate * float64(time.Second))
		if got := p.SlotAt(i); got != want {
			t.Fatalf("hold-only slot %d at %v, want %v", i, got, want)
		}
	}

	ramp := Profile{Rate: 8, RampUp: 4 * time.Second}
	// N(t) = Rate·t²/(2U) ⇒ slot 15 (x=16) fires at sqrt(2·4·16/8) = 4s,
	// the profile end.
	if got, want := ramp.SlotAt(ramp.Slots()-1), 4*time.Second; got != want {
		t.Fatalf("ramp-only final slot at %v, want %v", got, want)
	}
}

func TestProfileValidate(t *testing.T) {
	for _, p := range []Profile{
		{Rate: -1, Hold: time.Second},
		{Rate: 10, Hold: -time.Second},
		{Rate: 10, RampUp: -time.Nanosecond},
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted an invalid profile", p)
		}
	}
	if err := (Profile{Rate: 0}).Validate(); err != nil {
		t.Fatalf("zero profile rejected: %v", err)
	}
}

// TestPacerFiresEverySlotOnFakeClock runs a whole trapezoid on virtual
// time and checks each slot fired exactly once at its scheduled offset.
func TestPacerFiresEverySlotOnFakeClock(t *testing.T) {
	clock := newFakeClock()
	p := &pacer{
		Profile: Profile{Rate: 50, RampUp: time.Second, Hold: 4 * time.Second, RampDown: time.Second},
		Clock:   clock,
	}
	start := clock.Now()
	var mu sync.Mutex
	offsets := map[int]time.Duration{}
	stats, err := p.Run(context.Background(), func(slot int) {
		mu.Lock()
		offsets[slot] = clock.Now().Sub(start)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := p.Profile.Slots()
	if stats.Fired != want || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want %d fired, 0 skipped", stats, want)
	}
	if len(offsets) != want {
		t.Fatalf("%d distinct slots fired, want %d", len(offsets), want)
	}
	for i := 0; i < want; i++ {
		at, ok := offsets[i]
		if !ok {
			t.Fatalf("slot %d never fired", i)
		}
		// The virtual clock advances only through pacer sleeps, so each slot
		// observes at least its scheduled offset; later-slot sleeps may have
		// advanced the clock before a goroutine reads it, never the reverse.
		if at < p.Profile.SlotAt(i) {
			t.Fatalf("slot %d observed offset %v before its schedule %v", i, at, p.Profile.SlotAt(i))
		}
	}
}

// blockGate holds every call until released, to force the in-flight
// bound against the pacer.
type blockGate struct {
	mu      sync.Mutex
	waiting int
	release chan struct{}
}

func newBlockGate() *blockGate { return &blockGate{release: make(chan struct{})} }

func (g *blockGate) wait() {
	g.mu.Lock()
	g.waiting++
	g.mu.Unlock()
	<-g.release
}

// TestPacerSkipPolicy pins the skip contract: with every fn call blocked
// and MaxInFlight tokens taken, every further slot is skipped, never
// queued — Fired == MaxInFlight, Skipped == the rest.
func TestPacerSkipPolicy(t *testing.T) {
	const bound = 3
	gate := newBlockGate()
	p := &pacer{
		Profile:     Profile{Rate: 100, Hold: time.Second},
		MaxInFlight: bound,
		Policy:      skip,
		Clock:       newFakeClock(),
	}
	done := make(chan struct{})
	var stats paceStats
	var err error
	go func() {
		defer close(done)
		stats, err = p.Run(context.Background(), func(int) { gate.wait() })
	}()
	// Wait (on real time, but bounded) for the pacer to saturate: bound
	// goroutines parked in the gate means the semaphore is full and the
	// remaining slots are being skipped on the virtual schedule.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gate.mu.Lock()
		w := gate.waiting
		gate.mu.Unlock()
		if w == bound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pacer never saturated: %d waiting, want %d", w, bound)
		}
		runtime.Gosched()
	}
	close(gate.release)
	<-done
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := p.Profile.Slots()
	if stats.Fired != bound || stats.Skipped != total-bound {
		t.Fatalf("stats = %+v, want %d fired / %d skipped of %d slots", stats, bound, total-bound, total)
	}
}

// TestPacerQueuePolicy pins the Queue contract: every slot fires, none
// skip, and the observed concurrency never exceeds the bound.
func TestPacerQueuePolicy(t *testing.T) {
	const bound = 4
	var inFlight, peak atomic.Int64
	p := &pacer{
		Profile:     Profile{Rate: 200, Hold: time.Second},
		MaxInFlight: bound,
		Policy:      Queue,
		Clock:       newFakeClock(),
	}
	stats, err := p.Run(context.Background(), func(int) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := p.Profile.Slots()
	if stats.Fired != total || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want all %d slots fired", stats, total)
	}
	if got := peak.Load(); got > bound {
		t.Fatalf("observed %d concurrent calls, bound is %d", got, bound)
	}
}

// TestPacerZeroRate: a zero-rate profile emits nothing and returns
// immediately.
func TestPacerZeroRate(t *testing.T) {
	p := &pacer{Profile: Profile{Rate: 0, Hold: time.Hour}, Clock: newFakeClock()}
	stats, err := p.Run(context.Background(), func(int) { t.Error("fired a slot at rate 0") })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Fired != 0 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want zeroes", stats)
	}
}

// TestPacerCancellation: a cancelled context stops the schedule, returns
// the context error, and still waits for in-flight calls.
func TestPacerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &pacer{Profile: Profile{Rate: 10, Hold: time.Second}, Clock: newFakeClock()}
	stats, err := p.Run(ctx, func(int) { t.Error("fired under a cancelled context") })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Fired != 0 {
		t.Fatalf("stats = %+v, want nothing fired", stats)
	}
}

func TestPacerInvalidProfile(t *testing.T) {
	p := &pacer{Profile: Profile{Rate: -5}, Clock: newFakeClock()}
	if _, err := p.Run(context.Background(), func(int) {}); err == nil {
		t.Fatal("Run accepted a negative rate")
	}
}

func TestOverflowPolicyString(t *testing.T) {
	if skip.String() != "skip" || Queue.String() != "queue" {
		t.Fatalf("policy names = %q/%q", skip.String(), Queue.String())
	}
}

// fakeClock is a virtual clock: Now returns the virtual time and Sleep
// advances it immediately. The pacer is the only sleeper in a run, so
// under a fakeClock an entire load profile executes as fast as the
// senders allow while every slot still observes its scheduled offset.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// newFakeClock starts a virtual clock at an arbitrary fixed epoch.
func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

// Now returns the current virtual time.
func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual clock by d without blocking.
func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d > 0 {
		c.mu.Lock()
		c.now = c.now.Add(d)
		c.mu.Unlock()
	}
	return true
}

// nullSender accepts every request instantly, so a run against it
// exercises the pacer and recorder alone, with no server behind them.
type nullSender struct{}

// Send implements Sender.
func (nullSender) Send(context.Context, Request) (Result, error) { return Result{}, nil }

// Name implements Sender.
func (nullSender) Name() string { return "null" }

package loadgen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Profile is the rate shape of a run: the request rate ramps linearly
// from 0 to Rate over RampUp, holds at Rate for Hold, and ramps linearly
// back to 0 over RampDown. Any phase may be zero (RampUp==0 is an
// instant ramp; Hold==0 is a pure triangle).
//
// The slot schedule is a pure function of the profile. Integrating the
// rate over the phases gives the cumulative expected request count
//
//	N(t) = Rate·t²/(2·RampUp)                    t in the ramp-up
//	     = Rate·RampUp/2 + Rate·(t−RampUp)       t in the hold
//	     = … + Rate·τ − Rate·τ²/(2·RampDown)     τ = t−RampUp−Hold
//
// and slot i fires at the instant N(t) reaches i+1: Slots() is the floor
// of the total, SlotAt(i) the inverse of N. Two runs of one profile fire
// identical schedules — the determinism half of the package contract.
type Profile struct {
	// Rate is the peak request rate in requests/second, held for Hold and
	// the apex of both ramps.
	Rate float64
	// RampUp, Hold, RampDown are the phase durations.
	RampUp, Hold, RampDown time.Duration
}

// epsilon absorbs float rounding at phase boundaries so an exact-integer
// total does not lose its last slot.
const epsilon = 1e-9

// Validate checks the profile is runnable: no negative phase, a
// non-negative finite rate.
func (p Profile) Validate() error {
	if p.Rate < 0 || math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) {
		return fmt.Errorf("loadgen: rate %v is not a finite non-negative rate", p.Rate)
	}
	if p.RampUp < 0 || p.Hold < 0 || p.RampDown < 0 {
		return fmt.Errorf("loadgen: negative phase duration in profile %+v", p)
	}
	return nil
}

// Duration is the total profile length.
func (p Profile) Duration() time.Duration { return p.RampUp + p.Hold + p.RampDown }

// Slots returns the total number of request slots the profile emits: the
// integral of the rate over the three phases, floored.
func (p Profile) Slots() int {
	u, h, d := p.RampUp.Seconds(), p.Hold.Seconds(), p.RampDown.Seconds()
	return int(p.Rate*(u/2+h+d/2) + epsilon)
}

// SlotAt returns the offset from run start at which slot i (0-based)
// fires: the time the cumulative expected request count reaches i+1.
func (p Profile) SlotAt(i int) time.Duration {
	u, h, d := p.RampUp.Seconds(), p.Hold.Seconds(), p.RampDown.Seconds()
	x := float64(i + 1)
	rampUpTotal := p.Rate * u / 2
	holdTotal := p.Rate * h
	var t float64
	switch {
	case x <= rampUpTotal+epsilon:
		t = math.Sqrt(2 * u * x / p.Rate)
	case x <= rampUpTotal+holdTotal+epsilon:
		t = u + (x-rampUpTotal)/p.Rate
	default:
		rem := x - rampUpTotal - holdTotal
		// Rate·τ − Rate·τ²/(2d) = rem, solved for the ascending root.
		disc := d*d - 2*d*rem/p.Rate
		if disc < 0 {
			disc = 0 // the final slot's rounding may graze past the apex
		}
		t = u + h + (d - math.Sqrt(disc))
	}
	return time.Duration(t * float64(time.Second))
}

// OverflowPolicy says what a slot does when MaxInFlight requests are
// already outstanding at its fire time. The zero value skips the slot.
type OverflowPolicy int

const (
	// skip drops the slot and counts it skipped — the offered rate stays
	// honest and the report shows how much of it the target absorbed.
	skip OverflowPolicy = iota
	// Queue blocks the schedule until a slot frees — every request fires,
	// late, and latency under saturation shows up client-side.
	Queue
)

// String names the policy for report encoding.
func (o OverflowPolicy) String() string {
	if o == Queue {
		return "queue"
	}
	return "skip"
}

// pacer drives a Profile: it fires fn once per slot at the slot's
// scheduled offset, at most MaxInFlight concurrently, on the injected
// Clock.
type pacer struct {
	Profile Profile
	// MaxInFlight bounds concurrently outstanding fn calls (0 = unbounded).
	MaxInFlight int
	// Policy picks skip-vs-queue behaviour when MaxInFlight is reached.
	Policy OverflowPolicy
	// Clock is the time source (nil = the wall clock).
	Clock Clock
}

// paceStats summarises one Run.
type paceStats struct {
	// Fired counts slots whose fn was invoked; Skipped counts slots
	// dropped by the skip policy with every in-flight token taken.
	Fired, Skipped int
}

// Run executes the schedule, invoking fn(slot) in its own goroutine per
// fired slot, and returns once every invocation has finished. On context
// cancellation it stops firing, waits for in-flight calls, and returns
// ctx's error with the stats up to that point.
func (p *pacer) Run(ctx context.Context, fn func(slot int)) (paceStats, error) {
	if err := p.Profile.Validate(); err != nil {
		return paceStats{}, err
	}
	clock := p.Clock
	if clock == nil {
		clock = wallClock{}
	}
	var sem chan struct{}
	if p.MaxInFlight > 0 {
		sem = make(chan struct{}, p.MaxInFlight)
	}
	var (
		wg    sync.WaitGroup
		stats paceStats
		err   error
	)
	slots := p.Profile.Slots()
	start := clock.Now()
loop:
	for i := 0; i < slots; i++ {
		if d := p.Profile.SlotAt(i) - clock.Now().Sub(start); d > 0 {
			if !clock.Sleep(ctx, d) {
				err = ctx.Err()
				break
			}
		}
		if ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		if sem != nil {
			switch p.Policy {
			case skip:
				select {
				case sem <- struct{}{}:
				default:
					stats.Skipped++
					continue
				}
			case Queue:
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					err = ctx.Err()
					break loop
				}
			}
		}
		stats.Fired++
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			fn(slot)
		}(i)
	}
	wg.Wait()
	return stats, err
}

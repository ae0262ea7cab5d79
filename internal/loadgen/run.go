package loadgen

import (
	"context"
	"fmt"
	"time"
)

// Spec is one load-generator run: the rate profile, the traffic mix, the
// concurrency bound and overflow policy, the sender backend, and the
// optional server scrape and SLO.
type Spec struct {
	Profile Profile
	// Mix is the weighted cell mix (nil = DefaultMix).
	Mix []MixEntry
	// Seed drives the mix draws and every request's sweep seed; the same
	// (Seed, Mix, Profile) replays the same request sequence.
	Seed int64
	// MaxInFlight bounds outstanding requests (0 = unbounded); Policy
	// picks skip-vs-queue when the bound is hit.
	MaxInFlight int
	Policy      OverflowPolicy
	// Sender is the backend under load.
	Sender Sender
	// MetricsURL, when non-empty, is the target's Prometheus endpoint
	// (e.g. http://127.0.0.1:8091/metrics). It is scraped every
	// ScrapeInterval during the run (0 = final scrape only) and always
	// once after the last response, so the report's server half reflects
	// the complete run.
	MetricsURL     string
	ScrapeInterval time.Duration
	// Clock paces the run (nil = the wall clock; tests inject a fake one).
	Clock Clock
	// SLO, when non-nil, is evaluated into the report; mmloadgen exits
	// nonzero when it fails.
	SLO *SLO
}

// Run executes the spec and returns its report. The error covers setup
// and pacing problems (invalid profile or mix, context cancellation);
// per-request failures are data — counted in the report and judged by
// the SLO, not returned.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	if spec.Sender == nil {
		return nil, fmt.Errorf("loadgen: spec has no sender")
	}
	entries := spec.Mix
	if len(entries) == 0 {
		entries = DefaultMix()
	}
	mix, err := NewMix(spec.Seed, entries)
	if err != nil {
		return nil, err
	}
	clock := spec.Clock
	if clock == nil {
		clock = wallClock{}
	}
	rec := newRecorder(clock)

	// The periodic scraper runs on wall time regardless of the pacing
	// clock: it samples a live external server, which a virtual clock
	// cannot fast-forward.
	var stopScrape func()
	if spec.MetricsURL != "" && spec.ScrapeInterval > 0 {
		scrapeCtx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(spec.ScrapeInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					rec.Scrape(spec.MetricsURL)
				case <-scrapeCtx.Done():
					return
				}
			}
		}()
		stopScrape = func() { cancel(); <-done }
	}

	p := &pacer{
		Profile:     spec.Profile,
		MaxInFlight: spec.MaxInFlight,
		Policy:      spec.Policy,
		Clock:       clock,
	}
	start := clock.Now()
	stats, runErr := p.Run(ctx, func(slot int) {
		req := mix.Draw(slot)
		t0 := clock.Now()
		res, err := spec.Sender.Send(ctx, req)
		rec.Observe(clock.Now().Sub(t0), res, err)
	})
	elapsed := clock.Now().Sub(start)
	if stopScrape != nil {
		stopScrape()
	}
	// The final scrape runs after every response has completed (p.Run
	// waits for in-flight calls), so the server-side counters it reads
	// cover exactly the requests this run sent — the accounting the e2e
	// test pins.
	if spec.MetricsURL != "" {
		rec.Scrape(spec.MetricsURL)
	}
	return rec.report(spec, mix, stats, elapsed), runErr
}

package loadgen

import (
	"io"
	"log"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// newServeTarget stands up a real serve.Server on an httptest listener —
// the full mmserve path: HTTP routing, slot admission, NDJSON streaming,
// per-endpoint metrics.
func newServeTarget(t *testing.T, maxSweeps int) *httptest.Server {
	t.Helper()
	s := serve.NewServer(serve.Options{
		MaxSweeps: maxSweeps,
		Log:       log.New(io.Discard, "", 0),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// e2eSpec is the shared fixed-budget spec: a ramped profile on a virtual
// clock (the whole run takes as long as the sweeps do, not the profile),
// Queue policy so every planned slot fires exactly once.
func e2eSpec(t *testing.T, ts *httptest.Server) Spec {
	t.Helper()
	return Spec{
		Profile: Profile{Rate: 30, RampUp: 500 * time.Millisecond, Hold: time.Second, RampDown: 500 * time.Millisecond},
		Mix: []MixEntry{
			{Spec: "path:n=64", Algo: "greedy", Weight: 2},
			{Spec: "cycle:n=64", Algo: "greedy", Weight: 1},
			{Spec: "regular:n=64,k=4", Algo: "greedy", Weight: 1},
		},
		Seed:        11,
		MaxInFlight: 4,
		Policy:      Queue,
		Sender:      &HTTPSender{Base: ts.URL},
		MetricsURL:  ts.URL + "/metrics",
		Clock:       newFakeClock(),
		SLO:         &SLO{},
	}
}

// TestE2EExactAccounting drives a fixed request budget through a live
// serve.Server and pins exact accounting: every planned slot fires, zero
// client errors, zero contract violations, and the server's own /metrics
// counters agree with the client's send count request for request.
func TestE2EExactAccounting(t *testing.T) {
	ts := newServeTarget(t, 8)
	spec := e2eSpec(t, ts)
	rep, err := Run(t.Context(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	budget := int64(spec.Profile.Slots())
	if budget == 0 {
		t.Fatal("profile plans zero slots — the test is vacuous")
	}
	if rep.Sent != budget || rep.Skipped != 0 {
		t.Fatalf("sent %d / skipped %d, want the full budget %d with Queue policy", rep.Sent, rep.Skipped, budget)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d client errors (samples: %v)", rep.Errors, rep.ErrorSamples)
	}
	if rep.OK != budget {
		t.Fatalf("ok = %d, want %d", rep.OK, budget)
	}
	if rep.Violations != 0 {
		t.Fatalf("%d contract violations reported in trailers", rep.Violations)
	}
	if rep.Rows != budget {
		t.Fatalf("rows = %d, want %d (each request is one single-cell sweep row)", rep.Rows, budget)
	}

	srv := rep.Server
	if srv == nil {
		t.Fatal("report has no server section despite a metrics URL")
	}
	if srv.SweepRequestsTotal != rep.Sent {
		t.Fatalf("server counted %d sweep requests, client sent %d", srv.SweepRequestsTotal, rep.Sent)
	}
	if srv.SweepRequests2xx != rep.Sent {
		t.Fatalf("server counted %d 2xx sweep responses, want %d", srv.SweepRequests2xx, rep.Sent)
	}
	if srv.Count != uint64(rep.Sent) {
		t.Fatalf("server latency histogram holds %d observations, want %d", srv.Count, rep.Sent)
	}
	if rep.Client.Count != uint64(rep.Sent) {
		t.Fatalf("client latency histogram holds %d observations, want %d", rep.Client.Count, rep.Sent)
	}
	if rep.SLO == nil || !rep.SLO.Pass {
		t.Fatalf("strict SLO = %+v, want pass", rep.SLO)
	}
}

// TestE2EDeterministicReplay runs the same spec against two fresh
// servers: the mix draws the same cells with the same sweep seeds, so
// the aggregate row and violation counts — derived entirely from
// response bodies — must be identical.
func TestE2EDeterministicReplay(t *testing.T) {
	runOnce := func() *Report {
		ts := newServeTarget(t, 8)
		spec := e2eSpec(t, ts)
		rep, err := Run(t.Context(), spec)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	a, b := runOnce(), runOnce()
	if a.Errors != 0 || b.Errors != 0 {
		t.Fatalf("errors in replay runs: %d / %d", a.Errors, b.Errors)
	}
	if a.Sent != b.Sent || a.Rows != b.Rows || a.Violations != b.Violations {
		t.Fatalf("replay diverged: sent %d/%d rows %d/%d violations %d/%d",
			a.Sent, b.Sent, a.Rows, b.Rows, a.Violations, b.Violations)
	}
	// The drawn cell sequence itself replays — pinned at the mix layer
	// here so a divergence points at the right culprit.
	mixA, err := NewMix(11, e2eSpec(t, newServeTarget(t, 1)).Mix)
	if err != nil {
		t.Fatal(err)
	}
	seqA := mixA.Sequence(int(a.Sent))
	for i, r := range mixA.Sequence(int(a.Sent)) {
		if seqA[i] != r {
			t.Fatalf("mix draw %d unstable", i)
		}
	}
}

// TestE2EQuantileAgreement compares client-observed and server-observed
// latency for the same traffic: both histograms use the shared
// obs.DefaultLatencyBuckets grid, and with sweep cost dominating
// transport cost the two p50 estimates must land within one bucket of
// each other. This run uses the wall clock — the client side must
// measure real durations — but asserts bucket indices, not absolute
// times, so scheduler noise cannot flake it.
func TestE2EQuantileAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	ts := newServeTarget(t, 8)
	spec := Spec{
		Profile: Profile{Rate: 150, Hold: 400 * time.Millisecond},
		// One heavyweight cell: per-request sweep cost in the milliseconds,
		// so loopback HTTP overhead (tens of microseconds) cannot move the
		// client estimate more than a bucket above the server's.
		Mix:         []MixEntry{{Spec: "regular:n=4096,k=4", Algo: "greedy", Weight: 1}},
		Seed:        3,
		MaxInFlight: 8,
		Policy:      Queue,
		Sender:      &HTTPSender{Base: ts.URL},
		MetricsURL:  ts.URL + "/metrics",
		SLO:         &SLO{},
	}
	rep, err := Run(t.Context(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors (samples: %v)", rep.Errors, rep.ErrorSamples)
	}
	if rep.Client.P50Seconds == nil || rep.Server == nil || rep.Server.P50Seconds == nil {
		t.Fatalf("missing p50s: client %+v server %+v", rep.Client, rep.Server)
	}
	client, server := *rep.Client.P50Seconds, *rep.Server.P50Seconds
	bounds := obs.DefaultLatencyBuckets()
	ci := sort.SearchFloat64s(bounds, client)
	si := sort.SearchFloat64s(bounds, server)
	if d := ci - si; d < -1 || d > 1 {
		t.Fatalf("client p50 %.6fs (bucket %d) and server p50 %.6fs (bucket %d) disagree by more than one bucket",
			client, ci, server, si)
	}
}

package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func newTestReport(t *testing.T, spec Spec, touch func(r *recorder)) *Report {
	t.Helper()
	rec := newRecorder(newFakeClock())
	if touch != nil {
		touch(rec)
	}
	mix, err := NewMix(spec.Seed, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sender == nil {
		spec.Sender = nullSender{}
	}
	return rec.report(spec, mix, paceStats{}, 0)
}

// TestEmptyReportEncodes pins the NaN-vs-0 contract at the JSON layer: a
// run with zero observations and zero duration must still marshal —
// quantile fields absent (the JSON face of Quantile's NaN), throughput
// exactly 0, never a division artefact.
func TestEmptyReportEncodes(t *testing.T) {
	rep := newTestReport(t, Spec{Profile: Profile{Rate: 10, Hold: time.Second}}, nil)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("empty report does not marshal: %v", err)
	}
	s := string(b)
	for _, field := range []string{"p50_seconds", "p99_seconds", "p999_seconds", "mean_seconds"} {
		if strings.Contains(s, field) {
			t.Fatalf("zero-observation report encodes %q — NaN must map to an absent field, not a value:\n%s", field, s)
		}
	}
	if rep.ThroughputRPS != 0 {
		t.Fatalf("zero-duration throughput = %v, want exactly 0", rep.ThroughputRPS)
	}
	if rep.Client.Count != 0 {
		t.Fatalf("client count = %d, want 0", rep.Client.Count)
	}
}

// TestReportQuantilesPresentWithData: one observation makes the quantile
// fields appear, and they equal the observed value's bucket estimate.
func TestReportQuantilesPresentWithData(t *testing.T) {
	rep := newTestReport(t, Spec{}, func(r *recorder) {
		r.Observe(50*time.Millisecond, Result{Rows: 3}, nil)
		r.Observe(70*time.Millisecond, Result{Rows: 3, Violations: 1}, nil)
	})
	if rep.Sent != 2 || rep.OK != 2 || rep.Errors != 0 {
		t.Fatalf("counts = sent %d ok %d errors %d", rep.Sent, rep.OK, rep.Errors)
	}
	if rep.Rows != 6 || rep.Violations != 1 {
		t.Fatalf("rows/violations = %d/%d, want 6/1", rep.Rows, rep.Violations)
	}
	if rep.Client.P50Seconds == nil || rep.Client.P99Seconds == nil || rep.Client.MeanSeconds == nil {
		t.Fatalf("quantile fields missing with 2 observations: %+v", rep.Client)
	}
	if m := *rep.Client.MeanSeconds; m < 0.06-1e-12 || m > 0.06+1e-12 {
		t.Fatalf("mean = %v, want 0.06", m)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

func TestErrorSamplesBounded(t *testing.T) {
	rep := newTestReport(t, Spec{}, func(r *recorder) {
		for i := 0; i < 3*maxErrorSamples; i++ {
			r.Observe(time.Millisecond, Result{}, fmt.Errorf("boom %d", i))
		}
	})
	if len(rep.ErrorSamples) != maxErrorSamples {
		t.Fatalf("kept %d error samples, want %d", len(rep.ErrorSamples), maxErrorSamples)
	}
	if rep.Errors != int64(3*maxErrorSamples) || rep.OK != 0 {
		t.Fatalf("errors = %d ok = %d", rep.Errors, rep.OK)
	}
}

// TestSLOEvaluation pins the gate semantics, including the
// zero-observation cases: no requests fails outright, and a latency
// bound with no data fails rather than vacuously passing.
func TestSLOEvaluation(t *testing.T) {
	p := func(v float64) *float64 { return &v }
	cases := []struct {
		name string
		slo  SLO
		rep  Report
		pass bool
	}{
		{"clean pass", SLO{MaxP99Seconds: 1}, Report{Sent: 10, Client: Quantiles{P99Seconds: p(0.5)}}, true},
		{"p99 breach", SLO{MaxP99Seconds: 0.1}, Report{Sent: 10, Client: Quantiles{P99Seconds: p(0.5)}}, false},
		{"no p99 data with bound", SLO{MaxP99Seconds: 1}, Report{Sent: 10}, false},
		{"no requests", SLO{}, Report{}, false},
		{"strict zero error rate", SLO{}, Report{Sent: 10, Errors: 1}, false},
		{"tolerated error rate", SLO{MaxErrorRate: 0.2}, Report{Sent: 10, Errors: 1}, true},
		{"error rate breach", SLO{MaxErrorRate: 0.05}, Report{Sent: 10, Errors: 1}, false},
		{"no latency bound ignores latency", SLO{}, Report{Sent: 10}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := tc.slo.evaluate(&tc.rep)
			if res.Pass != tc.pass {
				t.Fatalf("pass = %v, want %v (failures: %v)", res.Pass, tc.pass, res.Failures)
			}
			if !res.Pass && len(res.Failures) == 0 {
				t.Fatal("failed SLO reports no failure strings")
			}
		})
	}
	if (*SLO)(nil).evaluate(&Report{}) != nil {
		t.Fatal("nil SLO should evaluate to nil")
	}
}

// TestReadNDJSON covers the HTTP sender's stream contract.
func TestReadNDJSON(t *testing.T) {
	row := `{"grid":"path:n=8","algo":"greedy","matched":4}`
	cases := []struct {
		name    string
		body    string
		rows    int
		viols   int
		wantErr string
	}{
		{"clean stream", row + "\n" + row + "\n" + `{"done":true,"rows":2,"violations":1}` + "\n", 2, 1, ""},
		{"empty sweep", `{"done":true,"rows":0,"violations":0}` + "\n", 0, 0, ""},
		{"no trailer", row + "\n", 0, 0, "without a done-trailer"},
		{"empty body", "", 0, 0, "without a done-trailer"},
		{"row count mismatch", row + "\n" + `{"done":true,"rows":5,"violations":0}` + "\n", 0, 0, "trailer counts 5 rows"},
		{"in-band error", row + "\n" + `{"error":"engine exploded"}` + "\n", 0, 0, "engine exploded"},
		{"data after trailer", `{"done":true,"rows":0,"violations":0}` + "\n" + row + "\n", 0, 0, "continued after its trailer"},
		{"garbage line", "not json\n", 0, 0, "bad NDJSON line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := readNDJSON(strings.NewReader(tc.body))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("readNDJSON: %v", err)
				}
				if res.Rows != tc.rows || res.Violations != tc.viols {
					t.Fatalf("res = %+v, want %d rows / %d violations", res, tc.rows, tc.viols)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunRequiresSender(t *testing.T) {
	if _, err := Run(t.Context(), Spec{Profile: Profile{Rate: 1, Hold: time.Second}}); err == nil {
		t.Fatal("Run accepted a spec with no sender")
	}
}

// TestRunNullSenderVirtualTime: a whole profile against the null sender
// on a fake clock — sanity for the Run plumbing without any server.
func TestRunNullSenderVirtualTime(t *testing.T) {
	spec := Spec{
		Profile: Profile{Rate: 100, RampUp: time.Second, Hold: 2 * time.Second, RampDown: time.Second},
		Sender:  nullSender{},
		Clock:   newFakeClock(),
		SLO:     &SLO{},
	}
	rep, err := Run(t.Context(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(spec.Profile.Slots())
	if rep.Sent != want || rep.OK != want || rep.Errors != 0 {
		t.Fatalf("sent/ok/errors = %d/%d/%d, want %d/%d/0", rep.Sent, rep.OK, rep.Errors, want, want)
	}
	if rep.SLO == nil || !rep.SLO.Pass {
		t.Fatalf("SLO = %+v, want pass", rep.SLO)
	}
	if rep.Server != nil {
		t.Fatalf("null-sender run has a server section: %+v", rep.Server)
	}
	if rep.DurationSeconds != spec.Profile.Duration().Seconds() {
		t.Fatalf("virtual duration = %v, want %v", rep.DurationSeconds, spec.Profile.Duration().Seconds())
	}
	if rep.Spec.Sender != "null" || rep.Spec.PlannedSlots != int(want) {
		t.Fatalf("spec echo = %+v", rep.Spec)
	}
}

// TestRunObservesSenderErrors: sender failures are report data, not Run
// errors, and they trip a strict SLO.
func TestRunObservesSenderErrors(t *testing.T) {
	spec := Spec{
		Profile: Profile{Rate: 10, Hold: time.Second},
		Sender:  senderFunc(func() (Result, error) { return Result{}, errors.New("down") }),
		Clock:   newFakeClock(),
		SLO:     &SLO{},
	}
	rep, err := Run(t.Context(), spec)
	if err != nil {
		t.Fatalf("Run returned the sender error: %v", err)
	}
	if rep.Errors != 10 || rep.OK != 0 {
		t.Fatalf("errors/ok = %d/%d, want 10/0", rep.Errors, rep.OK)
	}
	if rep.SLO.Pass {
		t.Fatal("strict SLO passed a 100% error run")
	}
	if len(rep.ErrorSamples) == 0 {
		t.Fatal("no error samples captured")
	}
}

// senderFunc adapts a function to Sender for tests.
type senderFunc func() (Result, error)

func (f senderFunc) Send(context.Context, Request) (Result, error) { return f() }
func (f senderFunc) Name() string                                  { return "test" }

package obs

import (
	"math"
	"strings"
	"testing"
)

// FuzzParsePrometheus holds the scrape path to two properties. Arbitrary
// text, as a user-given /metrics URL may return, never panics
// ParsePrometheus, nor Quantile on any histogram it accepts. And a
// registry holding a fuzzed label value, help text, counter, gauge and
// histogram observation round-trips through WritePrometheus and
// ParsePrometheus: every value, bucket and quantile comes back exactly.
func FuzzParsePrometheus(f *testing.F) {
	f.Add("# TYPE h histogram\nh_bucket{le=\"+Inf\"}0\nh_count 1", "", "", int64(0), 0.0, 0.0)
	f.Add("# TYPE x counter\nx{a=\"b\\\"c\"} 3\n", `a\"b`, "help\nline", int64(17), 2.5, 0.004)
	f.Add("", "é\n}", `back\slash`, int64(-1), math.Inf(-1), math.NaN())
	f.Fuzz(func(t *testing.T, text, label, help string, count int64, gauge, obs float64) {
		if snap, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			for _, fam := range snap.Families {
				for _, ps := range fam.Series {
					ps.Hist.Quantile(0.5)
					ps.Hist.Quantile(0.99)
				}
			}
		}

		r := NewRegistry()
		lv := L("v", label)
		c := r.Counter("fz_total", help, lv)
		c.Add(count)
		r.Gauge("fz_gauge", help, lv).Set(gauge)
		h := r.Histogram("fz_seconds", help, nil, lv)
		h.Observe(obs)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		snap, err := ParsePrometheus(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("ParsePrometheus of WritePrometheus output: %v\n%s", err, b.String())
		}
		if v, ok := snap.Value("fz_total", lv); !ok || v != float64(c.Value()) {
			t.Errorf("counter = %v, %v; want %v\n%s", v, ok, float64(c.Value()), b.String())
		}
		if v, ok := snap.Value("fz_gauge", lv); !ok || !sameFloat(v, gauge) {
			t.Errorf("gauge = %v, %v; want %v\n%s", v, ok, gauge, b.String())
		}
		ph, ok := snap.Histogram("fz_seconds", lv)
		if !ok {
			t.Fatalf("histogram series missing\n%s", b.String())
		}
		if ph.Count != h.Count() || !sameFloat(ph.Sum, h.Sum()) {
			t.Errorf("count/sum = %d/%v, want %d/%v", ph.Count, ph.Sum, h.Count(), h.Sum())
		}
		if len(ph.Upper) != len(h.upper) || len(ph.Cum) != len(h.upper)+1 {
			t.Fatalf("bucket shape: %d upper, %d cum; want %d, %d", len(ph.Upper), len(ph.Cum), len(h.upper), len(h.upper)+1)
		}
		cum := uint64(0)
		for i := range ph.Cum {
			cum += h.buckets[i].Load()
			if ph.Cum[i] != cum || i < len(h.upper) && ph.Upper[i] != h.upper[i] {
				t.Fatalf("bucket %d differs from the live histogram\n%s", i, b.String())
			}
		}
		for _, q := range []float64{0.5, 0.99} {
			if got, want := ph.Quantile(q), h.Quantile(q); !sameFloat(got, want) {
				t.Errorf("Quantile(%v) = %v parsed vs %v live", q, got, want)
			}
		}
	})
}

// sameFloat is == that also equates NaNs, which the text format spells
// alike whatever their payload.
func sameFloat(a, b float64) bool {
	return a == b || math.IsNaN(a) && math.IsNaN(b)
}

package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Summary is one (workload, metric) over repeated runs.
type Summary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	// Spread is (Q3 − Q1) / Median.
	Spread float64 `json:"spread"`
}

// Repeat is what mmbench -repeat writes: every run, in the order run, and
// the per-metric summary.
type Repeat struct {
	Host    Host      `json:"host"`
	Commit  string    `json:"commit,omitempty"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*Report `json:"runs"`
	Summary []Summary `json:"summary"`
}

// Quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads read the same here and in any script checking them.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Summarize groups the runs' metrics by (workload, metric), in the order
// they first appear.
func Summarize(runs []*Report) []Summary {
	var out []Summary
	index := map[[2]string]int{}
	for _, r := range runs {
		names := make([]string, 0, len(r.Result.Metrics))
		for name := range r.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			key := [2]string{r.Workload, name}
			i, ok := index[key]
			if !ok {
				i = len(out)
				index[key] = i
				out = append(out, Summary{Workload: r.Workload, Metric: name, Unit: r.Result.Metrics[name].Unit})
			}
			out[i].Values = append(out[i].Values, r.Result.Metrics[name].Value)
		}
	}
	for i := range out {
		s := &out[i]
		s.Q1, s.Median, s.Q3 = Quartiles(s.Values)
		s.Spread = ratio(s.Q3-s.Q1, math.Abs(s.Median))
	}
	return out
}

// BoundDef is one end-to-end metric of BENCHMARK.json.
type BoundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadBounds reads the end-to-end metric list of a BENCHMARK.json.
func LoadBounds(path string) ([]BoundDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []BoundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return f.EndToEnd, nil
}

// Verdict compares one (workload, metric) between a parent and a change.
type Verdict struct {
	Workload     string  `json:"workload"`
	Metric       string  `json:"metric"`
	Parent       float64 `json:"parent_median"`
	Change       float64 `json:"change_median"`
	ParentSpread float64 `json:"parent_spread"`
	ChangeSpread float64 `json:"change_spread"`
	Wins         int     `json:"wins"`
	Pairs        int     `json:"pairs"`
	Verdict      string  `json:"verdict"`
}

// Compare judges every end-to-end (workload, metric) pair:
//   - unresolved: a run on either side lists the metric in its Unresolved;
//   - unresolved: either side's spread exceeds the bound, unless every
//     change run reads better than every parent run (then improved);
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - improved: the change wins at least 9 in 10 of the paired runs and
//     the medians differ by more than the parent's quartile distance;
//   - unchanged otherwise.
func Compare(parent, change *Repeat, bounds []BoundDef) []Verdict {
	changeBy := map[[2]string]Summary{}
	for _, s := range change.Summary {
		changeBy[[2]string{s.Workload, s.Metric}] = s
	}
	defs := map[string]BoundDef{}
	for _, d := range bounds {
		defs[d.Name] = d
	}
	invalid := map[[2]string]bool{}
	for _, r := range append(append([]*Report(nil), parent.Runs...), change.Runs...) {
		for _, name := range r.Unresolved {
			invalid[[2]string{r.Workload, name}] = true
		}
	}
	var out []Verdict
	for _, p := range parent.Summary {
		d, ok := defs[p.Metric]
		c, ok2 := changeBy[[2]string{p.Workload, p.Metric}]
		if !ok || !ok2 {
			continue
		}
		better := func(a, b float64) bool { // a reads better than b
			if d.Better == "higher" {
				return a > b
			}
			return a < b
		}
		v := Verdict{Workload: p.Workload, Metric: p.Metric, Parent: p.Median, Change: c.Median,
			ParentSpread: p.Spread, ChangeSpread: c.Spread, Pairs: min(len(p.Values), len(c.Values))}
		for i := 0; i < v.Pairs; i++ {
			if better(c.Values[i], p.Values[i]) {
				v.Wins++
			}
		}
		worse := ratio(c.Median-p.Median, math.Abs(p.Median))
		if d.Better == "higher" {
			worse = -worse
		}
		allBetter := len(c.Values) > 0 && len(p.Values) > 0
		for _, cv := range c.Values {
			for _, pv := range p.Values {
				allBetter = allBetter && better(cv, pv)
			}
		}
		switch {
		case invalid[[2]string{p.Workload, p.Metric}]:
			v.Verdict = "unresolved"
		case (p.Spread > d.Bound || c.Spread > d.Bound) && allBetter:
			v.Verdict = "improved"
		case p.Spread > d.Bound || c.Spread > d.Bound:
			v.Verdict = "unresolved"
		case worse > d.Bound:
			v.Verdict = "regressed"
		case 10*v.Wins >= 9*v.Pairs && v.Pairs > 0 && better(c.Median, p.Median) &&
			math.Abs(c.Median-p.Median) > p.Q3-p.Q1:
			v.Verdict = "improved"
		default:
			v.Verdict = "unchanged"
		}
		out = append(out, v)
	}
	return out
}

package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read half of the exposition format: a minimal parser
// for the Prometheus text format WritePrometheus emits, used by consumers
// that scrape a live registry over HTTP (the loadgen recorder reading
// mmserve's /metrics next to its own client-side histograms). It parses
// the subset this repo produces — HELP/TYPE comments, counter/gauge
// samples, cumulative histogram triplets — and tolerates everything else:
// unknown TYPE kinds, families with no TYPE line, and extra suffixes all
// land as untyped samples instead of errors, so a scrape of a richer
// endpoint still yields the families we know how to read.

// Snapshot is one parsed exposition: families by name. Histogram
// families hold their series reassembled from the _bucket/_sum/_count
// triplet under the base name; everything else (counter, gauge, unknown)
// holds plain samples.
type Snapshot struct {
	Families map[string]*ParsedFamily
}

// ParsedFamily is one metric family of a Snapshot.
type ParsedFamily struct {
	Name string
	// Kind is the TYPE line's kind ("counter", "gauge", "histogram"), or
	// "untyped" for families that appeared without one.
	Kind   string
	Series []*ParsedSeries
	// bySig indexes Series by canonical label signature (excluding le).
	bySig map[string]*ParsedSeries
}

// ParsedSeries is one labelled series of a family: a plain sample value
// for counters/gauges/untyped families, a reassembled histogram for
// histogram families.
type ParsedSeries struct {
	// Labels hold the series' label pairs; histogram series exclude le.
	Labels map[string]string
	// Value is the sample value of a non-histogram series.
	Value float64
	// Hist is the reassembled histogram of a histogram-family series.
	Hist *ParsedHistogram
}

// ParsedHistogram is one histogram series reassembled from its
// cumulative _bucket/_sum/_count triplet.
type ParsedHistogram struct {
	// Upper are the finite bucket upper bounds, ascending; Cum the
	// cumulative counts aligned with Upper plus the +Inf bucket last, so
	// len(Cum) == len(Upper)+1 once the +Inf bucket has been seen.
	Upper []float64
	Cum   []uint64
	Sum   float64
	Count uint64
}

// Quantile estimates the q-quantile exactly as Histogram.Quantile does on
// the live registry — linear interpolation inside the bucket holding the
// target rank, values beyond the last finite bound clamped to it — so a
// scraped histogram and the registry it came from answer quantile queries
// identically (pinned by the round-trip test). Like the live method it
// returns NaN with zero observations: "no data" must stay distinguishable
// from "all observations were 0", and callers that encode quantiles (the
// loadgen report) map NaN to an absent field rather than a fake zero. A
// scraped histogram with no finite bucket bound (only +Inf) has nothing to
// clamp to, so it returns NaN too.
func (h *ParsedHistogram) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 || len(h.Cum) == 0 || len(h.Upper) == 0 {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i := range h.Cum {
		inBucket := float64(h.Cum[i]) - cum
		if cum+inBucket >= rank {
			if i >= len(h.Upper) {
				return h.Upper[len(h.Upper)-1] // +Inf bucket clamps
			}
			lo := 0.0
			if i > 0 {
				lo = h.Upper[i-1]
			}
			if inBucket == 0 {
				return h.Upper[i]
			}
			return lo + (h.Upper[i]-lo)*(rank-cum)/inBucket
		}
		cum += inBucket
	}
	return h.Upper[len(h.Upper)-1]
}

// Value returns the sample of (name, labels) from a counter/gauge/untyped
// family, reporting whether the series exists.
func (s *Snapshot) Value(name string, labels ...Label) (float64, bool) {
	f, ok := s.Families[name]
	if !ok || f.Kind == "histogram" {
		return 0, false
	}
	ps, ok := f.bySig[labelSignature(labels)]
	if !ok {
		return 0, false
	}
	return ps.Value, true
}

// Histogram returns the reassembled histogram of (name, labels),
// reporting whether the series exists in a histogram family.
func (s *Snapshot) Histogram(name string, labels ...Label) (*ParsedHistogram, bool) {
	f, ok := s.Families[name]
	if !ok || f.Kind != "histogram" {
		return nil, false
	}
	ps, ok := f.bySig[labelSignature(labels)]
	if !ok || ps.Hist == nil {
		return nil, false
	}
	return ps.Hist, true
}

// ParsePrometheus decodes a text exposition. Unparseable sample lines are
// an error — a torn scrape must not read as a smaller registry — but
// unknown families, kinds and comment lines pass through untyped or
// ignored.
func ParsePrometheus(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Families: map[string]*ParsedFamily{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				continue // malformed comment: ignore, comments are advisory
			}
			snap.family(fields[2]).Kind = fields[3]
		case strings.HasPrefix(line, "#"):
			continue // HELP and arbitrary comments
		default:
			if err := snap.addSample(line); err != nil {
				return nil, fmt.Errorf("obs: parse line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: parse: %w", err)
	}
	// A histogram family whose +Inf bucket never arrived was torn
	// mid-triplet; refuse it rather than hand back a short histogram.
	for name, f := range snap.Families {
		if f.Kind != "histogram" {
			continue
		}
		for _, ps := range f.Series {
			if ps.Hist != nil && len(ps.Hist.Cum) != len(ps.Hist.Upper)+1 {
				return nil, fmt.Errorf("obs: parse: histogram %s%s has no +Inf bucket (torn scrape?)", name, renderLabels(ps.Labels))
			}
		}
	}
	return snap, nil
}

// family returns the named family, creating it untyped on first sight.
func (s *Snapshot) family(name string) *ParsedFamily {
	f, ok := s.Families[name]
	if !ok {
		f = &ParsedFamily{Name: name, Kind: "untyped", bySig: map[string]*ParsedSeries{}}
		s.Families[name] = f
	}
	return f
}

// addSample routes one sample line to its family, reassembling histogram
// triplets under their base name.
func (s *Snapshot) addSample(line string) error {
	name, labels, value, err := parseSample(line)
	if err != nil {
		return err
	}
	// A _bucket/_sum/_count suffix belongs to a histogram family iff the
	// base name was TYPEd histogram — otherwise the full name is an
	// ordinary (possibly unknown) family and passes through untyped.
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		f, exists := s.Families[base]
		if !exists || f.Kind != "histogram" {
			continue
		}
		le, hasLE := labels["le"]
		if suffix == "_bucket" && !hasLE {
			return fmt.Errorf("bucket sample %s without le label", name)
		}
		delete(labels, "le")
		ps := f.series(labels)
		if ps.Hist == nil {
			ps.Hist = &ParsedHistogram{}
		}
		switch suffix {
		case "_bucket":
			cum := uint64(value)
			if le == "+Inf" {
				ps.Hist.Cum = append(ps.Hist.Cum, cum)
				return nil
			}
			upper, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("bucket sample %s: bad le %q", name, le)
			}
			ps.Hist.Upper = append(ps.Hist.Upper, upper)
			ps.Hist.Cum = append(ps.Hist.Cum, cum)
		case "_sum":
			ps.Hist.Sum = value
		case "_count":
			ps.Hist.Count = uint64(value)
		}
		return nil
	}
	s.family(name).series(labels).Value = value
	return nil
}

// series returns the family's series under the given labels, creating it
// on first sight.
func (f *ParsedFamily) series(labels map[string]string) *ParsedSeries {
	sig := renderLabels(labels)
	ps, ok := f.bySig[sig]
	if !ok {
		ps = &ParsedSeries{Labels: labels}
		f.Series = append(f.Series, ps)
		f.bySig[sig] = ps
	}
	return ps
}

// renderLabels produces the canonical signature of a label map — the same
// rendering labelSignature gives a []Label, so Snapshot lookups by Label
// list find series parsed from text.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, 0, len(labels))
	for k, v := range labels {
		ls = append(ls, Label{Key: k, Value: v})
	}
	return labelSignature(ls)
}

// parseSample splits one sample line into name, label map and value.
func parseSample(line string) (string, map[string]string, float64, error) {
	var name, rest string
	labels := map[string]string{}
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		close := strings.LastIndexByte(line, '}')
		if close < i {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		if labels, err = parseLabels(line[i+1 : close]); err != nil {
			return "", nil, 0, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(line[close+1:])
	} else {
		var ok bool
		name, rest, ok = strings.Cut(line, " ")
		if !ok {
			return "", nil, 0, fmt.Errorf("sample %q has no value", line)
		}
	}
	if name == "" {
		return "", nil, 0, fmt.Errorf("sample %q has no metric name", line)
	}
	// The value is the first field after the labels; a trailing timestamp
	// (which this repo never writes) is tolerated and ignored.
	valueField := strings.Fields(rest)
	if len(valueField) == 0 {
		return "", nil, 0, fmt.Errorf("sample %q has no value", line)
	}
	v, err := parseValue(valueField[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %q: %w", line, err)
	}
	return name, labels, v, nil
}

// parseValue accepts the spec's NaN/Inf spellings alongside ordinary
// floats.
func parseValue(s string) (float64, error) {
	switch s {
	case "NaN":
		return math.NaN(), nil
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels decodes the inside of a {...} label set, honouring the
// escaping escapeLabelValue applies (backslash, quote, newline).
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label %q without value", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s value is not quoted", key)
		}
		s = s[1:]
		var b strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(s) {
			return nil, fmt.Errorf("label %s value unterminated", key)
		}
		labels[key] = b.String()
		s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// boundsAscend reports whether the bucket bounds ascend — the invariant
// Quantile's scan relies on; tests assert it on every parsed histogram.
func (h *ParsedHistogram) boundsAscend() bool {
	return sort.Float64sAreSorted(h.Upper)
}

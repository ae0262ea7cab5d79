package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// newTestServer starts an httptest server over a fresh Server with quiet
// logging. Returns the Server for counter inspection.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Log == nil {
		opts.Log = log.New(io.Discard, "", 0)
	}
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fourCycle is the canonical submitted graph of these tests: C4 with a
// proper 2-edge-colouring, so greedy matches perfectly and bipartite
// (needing labels) skips.
func fourCycle() GraphRequest {
	return GraphRequest{N: 4, K: 2, Edges: [][3]int{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 0, 2}}}
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ndjson splits a body into decoded lines, separating rows from the
// trailer.
func ndjson(t *testing.T, body []byte) (rows []sweep.Result, trailer *SweepTrailer) {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var probe struct {
			Done  *bool  `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Error != "" {
			t.Fatalf("in-band error line: %s", probe.Error)
		}
		if probe.Done != nil {
			var tr SweepTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			trailer = &tr
			continue
		}
		var r sweep.Result
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows, trailer
}

func TestSubmitGraphRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp := postJSON(t, ts.URL+"/v1/graphs", fourCycle())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var gr GraphResponse
	if err := json.Unmarshal(readAll(t, resp), &gr); err != nil {
		t.Fatal(err)
	}
	if !gr.Created || !gen.IsGraphID(gr.ID) || gr.N != 4 || gr.K != 2 || gr.Edges != 4 || gr.MaxDegree != 2 {
		t.Fatalf("submit response = %+v", gr)
	}

	// Resubmission is idempotent: same address, created=false, 200.
	resp = postJSON(t, ts.URL+"/v1/graphs", fourCycle())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d", resp.StatusCode)
	}
	var gr2 GraphResponse
	if err := json.Unmarshal(readAll(t, resp), &gr2); err != nil {
		t.Fatal(err)
	}
	if gr2.Created || gr2.ID != gr.ID {
		t.Fatalf("resubmit response = %+v (want created=false, id %s)", gr2, gr.ID)
	}

	// The stored graph is retrievable by its address.
	resp, err := http.Get(ts.URL + "/v1/graphs/" + gr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	readAll(t, resp)

	resp, err = http.Get(ts.URL + "/v1/graphs/" + gen.GraphIDPrefix + strings.Repeat("0", 32))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing status = %d", resp.StatusCode)
	}
	readAll(t, resp)
}

func TestSubmitGraphRejectsInvalid(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, req := range map[string]GraphRequest{
		"colour clash": {N: 3, K: 2, Edges: [][3]int{{0, 1, 1}, {1, 2, 1}}},
		"self loop":    {N: 2, K: 1, Edges: [][3]int{{0, 0, 1}}},
		"out of range": {N: 2, K: 1, Edges: [][3]int{{0, 5, 1}}},
		"zero n":       {N: 0, K: 1},
	} {
		resp := postJSON(t, ts.URL+"/v1/graphs", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422", name, resp.StatusCode)
		}
		readAll(t, resp)
	}
}

// TestSubmitGraphRefusesOversizedShape sends shapes whose n or k would make
// the store allocate (or overflow) before reading an edge: each gets 422
// naming the field, and the daemon keeps serving.
func TestSubmitGraphRefusesOversizedShape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name, body, field string
	}{
		{"huge n", `{"n":1125899906842624,"k":1,"edges":[]}`, "n"},
		{"huge k", `{"n":1,"k":9223372036854775807,"edges":[]}`, "k"},
		{"n just over the cap", fmt.Sprintf(`{"n":%d,"k":1}`, maxGraphNodes+1), "n"},
		{"k just over the cap", fmt.Sprintf(`{"n":2,"k":%d}`, maxGraphColors+1), "k"},
		{"negative k", `{"n":2,"k":-1}`, "k"},
	} {
		resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := string(readAll(t, resp))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422 (%s)", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(body, "field "+tc.field+" ") {
			t.Errorf("%s: error %s does not name field %s", tc.name, body, tc.field)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after refusals: status %d", resp.StatusCode)
	}
}

// TestSweepSubmittedGraph is the service's core path: POST a graph, sweep
// it by address, get one valid NDJSON row per cell plus a done trailer.
func TestSweepSubmittedGraph(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	var gr GraphResponse
	if err := json.Unmarshal(readAll(t, postJSON(t, ts.URL+"/v1/graphs", fourCycle())), &gr); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Graphs:      []string{gr.ID},
		Algos:       []string{"greedy", "proposal"},
		Reps:        2,
		CheckBounds: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.Header.Get("Sweep-Seed") == "" || resp.Header.Get("Sweep-Cells") != "4" {
		t.Fatalf("headers = %v", resp.Header)
	}
	rows, trailer := ndjson(t, readAll(t, resp))
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if trailer == nil || !trailer.Done || trailer.Rows != 4 || trailer.Violations != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
	for _, r := range rows {
		if r.Scenario != gr.ID {
			t.Fatalf("row scenario = %q, want %q", r.Scenario, gr.ID)
		}
		if r.Matched != 2 { // C4's maximal matchings under both algos
			t.Fatalf("row %s matched = %d, want 2", r.ID(), r.Matched)
		}
	}
	// Four cells = 2 algos × 2 reps. The per-rep seed is part of the cache
	// key (uniform spec identity), so each rep misses once and its second
	// algorithm hits; the store hands both entries the same stored blob.
	if st := srv.CacheStats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 2 misses / 2 hits", st)
	}
}

// TestSweepByteIdenticalRepeatHitsCache is the acceptance criterion: two
// identical seedless requests return byte-identical NDJSON bodies, the
// second served from the instance cache (hit counter advances, no new
// misses).
func TestSweepByteIdenticalRepeatHitsCache(t *testing.T) {
	srv, ts := newTestServer(t, Options{})

	var gr GraphResponse
	if err := json.Unmarshal(readAll(t, postJSON(t, ts.URL+"/v1/graphs", fourCycle())), &gr); err != nil {
		t.Fatal(err)
	}
	req := SweepRequest{
		Grids:       []string{"matching-union:n=64,k=4"},
		Graphs:      []string{gr.ID},
		Algos:       []string{"greedy"},
		CheckBounds: true,
	}
	resp1 := postJSON(t, ts.URL+"/v1/sweep", req)
	seed1 := resp1.Header.Get("Sweep-Seed")
	body1 := readAll(t, resp1)
	mid := srv.CacheStats()

	resp2 := postJSON(t, ts.URL+"/v1/sweep", req)
	seed2 := resp2.Header.Get("Sweep-Seed")
	body2 := readAll(t, resp2)
	after := srv.CacheStats()

	if seed1 == "" || seed1 != seed2 {
		t.Fatalf("derived seeds differ: %q vs %q", seed1, seed2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat bodies differ:\n%s\nvs\n%s", body1, body2)
	}
	if rows, trailer := ndjson(t, body1); len(rows) != 2 || trailer == nil || !trailer.Done {
		t.Fatalf("body = %d rows, trailer %+v", len(rows), trailer)
	}
	if after.Misses != mid.Misses {
		t.Fatalf("repeat request built instances: misses %d → %d", mid.Misses, after.Misses)
	}
	if after.Hits <= mid.Hits {
		t.Fatalf("repeat request did not hit the cache: hits %d → %d", mid.Hits, after.Hits)
	}

	// A different seed is a different sweep — rows must differ for the
	// generated grid (the submitted graph's rows differ in the seed field).
	req.Seed = 99
	body3 := readAll(t, postJSON(t, ts.URL+"/v1/sweep", req))
	if bytes.Equal(body1, body3) {
		t.Fatal("different seed returned identical body")
	}
}

func TestSweepRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, tc := range map[string]struct {
		req  SweepRequest
		want int
	}{
		"empty":         {SweepRequest{}, http.StatusBadRequest},
		"bad grid":      {SweepRequest{Grids: []string{"no-such-family:n=4"}}, http.StatusBadRequest},
		"bad algo":      {SweepRequest{Grids: []string{"regular:n=64,k=4"}, Algos: []string{"quantum"}}, http.StatusBadRequest},
		"missing graph": {SweepRequest{Graphs: []string{gen.GraphIDPrefix + strings.Repeat("0", 32)}}, http.StatusNotFound},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweep", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.want)
		}
		readAll(t, resp)
	}
}

// gatedProvider blocks Instance calls until released — the test seam for
// saturation and drain tests.
type gatedProvider struct {
	inner   sweep.InstanceProvider
	entered chan struct{} // one tick per Instance call that starts waiting
	release chan struct{} // closed to let all calls proceed
}

func (g *gatedProvider) Instance(spec sweep.InstanceSpec) (*gen.Instance, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.inner.Instance(spec)
}

func TestSweepSlotSaturationReturns503(t *testing.T) {
	gate := &gatedProvider{entered: make(chan struct{}, 8), release: make(chan struct{})}
	_, ts := newTestServer(t, Options{
		MaxSweeps: 1,
		WrapProvider: func(p sweep.InstanceProvider) sweep.InstanceProvider {
			gate.inner = p
			return gate
		},
	})

	req := SweepRequest{Grids: []string{"regular:n=64,k=4"}, Algos: []string{"greedy"}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/v1/sweep", req)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("gated sweep status = %d", resp.StatusCode)
		}
		if _, trailer := ndjson(t, readAll(t, resp)); trailer == nil || !trailer.Done {
			t.Error("gated sweep did not complete")
		}
	}()
	<-gate.entered // the only slot is now held mid-build

	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	readAll(t, resp)

	close(gate.release)
	wg.Wait()
}

// TestDrainFinishesInFlightSweep is the shutdown acceptance criterion:
// BeginDrain refuses new sweeps while an in-flight sweep — even one whose
// instance build hasn't finished — streams every row and its trailer.
func TestDrainFinishesInFlightSweep(t *testing.T) {
	gate := &gatedProvider{entered: make(chan struct{}, 8), release: make(chan struct{})}
	srv, ts := newTestServer(t, Options{
		WrapProvider: func(p sweep.InstanceProvider) sweep.InstanceProvider {
			gate.inner = p
			return gate
		},
	})

	req := SweepRequest{Grids: []string{"regular:n=64,k=4"}, Algos: []string{"greedy"}, Reps: 2}
	type result struct {
		rows    int
		trailer *SweepTrailer
	}
	done := make(chan result, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/v1/sweep", req)
		rows, trailer := ndjson(t, readAll(t, resp))
		done <- result{len(rows), trailer}
	}()
	<-gate.entered // sweep is in flight, blocked inside the build

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep status = %d, want 503", resp.StatusCode)
	}
	readAll(t, resp)

	// /healthz reports the drain while the old sweep still runs.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.Unmarshal(readAll(t, hresp), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || h.ActiveSweeps != 1 {
		t.Fatalf("health during drain = %+v", h)
	}

	close(gate.release) // let the in-flight sweep finish
	select {
	case r := <-done:
		if r.rows != 2 || r.trailer == nil || !r.trailer.Done || r.trailer.Rows != 2 {
			t.Fatalf("drained sweep delivered %d rows, trailer %+v", r.rows, r.trailer)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight sweep did not complete after drain")
	}
	if srv.ActiveSweeps() != 0 {
		t.Fatalf("ActiveSweeps = %d after completion", srv.ActiveSweeps())
	}
}

func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []scenarioInfo
	if err := json.Unmarshal(readAll(t, resp), &scenarios); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sc := range scenarios {
		names[sc.Name] = true
	}
	for _, want := range gen.Names() {
		if !names[want] {
			t.Fatalf("/v1/scenarios misses %q", want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/algos")
	if err != nil {
		t.Fatal(err)
	}
	var algos []string
	if err := json.Unmarshal(readAll(t, resp), &algos); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(algos) != fmt.Sprint(sweep.AlgoNames()) {
		t.Fatalf("/v1/algos = %v, want %v", algos, sweep.AlgoNames())
	}
}

// TestGraphStorePutBoundsShape calls Put directly with shapes that used to
// panic inside the builder's first allocation.
func TestGraphStorePutBoundsShape(t *testing.T) {
	st := NewGraphStore(0)
	for _, shape := range [][2]int{{1 << 50, 1}, {1, math.MaxInt}, {-1, 1}, {1, 0}} {
		if _, _, err := st.Put(shape[0], shape[1], nil); err == nil {
			t.Errorf("Put(n=%d, k=%d) accepted", shape[0], shape[1])
		}
	}
	if _, created, err := st.Put(2, maxGraphColors, [][3]int{{0, 1, maxGraphColors}}); err != nil || !created {
		t.Fatalf("Put at the k cap: created=%v err=%v", created, err)
	}
	// Edges out of colour order at the k cap make Build sort them, which
	// must not cost O(k).
	sg, created, err := st.Put(3, maxGraphColors, [][3]int{{1, 2, maxGraphColors}, {0, 1, 1}})
	if err != nil || !created || sg.Edges != 2 || sg.MaxDegree != 2 {
		t.Fatalf("out-of-order Put at the k cap: %+v created=%v err=%v", sg, created, err)
	}
}

func TestGraphStoreCap(t *testing.T) {
	st := NewGraphStore(1)
	if _, created, err := st.Put(4, 2, fourCycle().Edges); err != nil || !created {
		t.Fatalf("first put: created=%v err=%v", created, err)
	}
	// A second distinct graph exceeds the cap; the identical graph does not.
	if _, _, err := st.Put(2, 1, [][3]int{{0, 1, 1}}); err == nil || !strings.Contains(err.Error(), "store full") {
		t.Fatalf("over-cap put err = %v", err)
	}
	if _, created, err := st.Put(4, 2, fourCycle().Edges); err != nil || created {
		t.Fatalf("idempotent put at cap: created=%v err=%v", created, err)
	}
}

// TestRequestSeedGolden pins the value-addressed seed of Seed: 0 requests.
// Every cell, instance and row of such a sweep derives from it, so a
// change to the derivation silently renames every unseeded sweep.
func TestRequestSeedGolden(t *testing.T) {
	for name, tc := range map[string]struct {
		req  SweepRequest
		want int64
	}{
		"grids":         {SweepRequest{Grids: []string{"path:n=16", "cycle:n=8..16"}}, 4951658315278930636},
		"graphs+algos":  {SweepRequest{Graphs: []string{"g1", "g2"}, Algos: []string{"greedy", "proposal"}}, -8821366689921055794},
		"grids, reps 3": {SweepRequest{Grids: []string{"matching-union:n=64,k=4"}, Reps: 3}, -3514512435696179403},
	} {
		if got := requestSeed(tc.req); got != tc.want {
			t.Errorf("%s: requestSeed = %d, want %d", name, got, tc.want)
		}
	}
}

// TestStrictRequestBodies: both POST endpoints refuse a body with an
// unknown field — a misspelling or a removed option — with a 400 naming
// it, instead of silently running a different request.
func TestStrictRequestBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, tc := range map[string]struct {
		path, body string
		want       int
		field      string
	}{
		"sweep ok":            {"/v1/sweep", `{"grids":["path:n=8,k=2"],"algos":["proposal"]}`, http.StatusOK, ""},
		"sweep misspelt algo": {"/v1/sweep", `{"grids":["path"],"algo":["proposal"]}`, http.StatusBadRequest, `"algo"`},
		"sweep build_workers": {"/v1/sweep", `{"grids":["path:n=8,k=2"],"build_workers":2}`, http.StatusBadRequest, `"build_workers"`},
		"sweep seeds":         {"/v1/sweep", `{"grids":["path:n=8,k=2"],"seeds":2}`, http.StatusBadRequest, `"seeds"`},
		"graph ok":            {"/v1/graphs", `{"n":2,"k":1,"edges":[[0,1,1]]}`, http.StatusCreated, ""},
		"graph extra field":   {"/v1/graphs", `{"n":2,"k":1,"edges":[[0,1,1]],"colours":1}`, http.StatusBadRequest, `"colours"`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", name, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.field != "" {
			var e struct{ Error string }
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, tc.field) {
				t.Errorf("%s: error %q does not name %s", name, body, tc.field)
			}
		}
	}
}

// TestSweepRefusesGreedyOverPalette: greedy on a stored graph whose
// highest colour is above maxGreedySweepColor would run that many rounds
// into one dense row, so the request is a 422 naming the graph, its
// highest colour and the limit, before any 200 or engine work, and it is
// counted as a palette refusal. Greedy is requested when named and when
// algos is empty; the other algorithms sweep the same graph.
func TestSweepRefusesGreedyOverPalette(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var gr GraphResponse
	body := readAll(t, postJSON(t, ts.URL+"/v1/graphs", GraphRequest{N: 2, K: maxGraphColors, Edges: [][3]int{{0, 1, maxGraphColors}}}))
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	for _, algos := range [][]string{nil, {"reduced", "greedy"}} {
		resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Graphs: []string{gr.ID}, Algos: algos})
		msg := string(readAll(t, resp))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("algos %v: status = %d, want 422: %s", algos, resp.StatusCode, msg)
		}
		for _, want := range []string{gr.ID, strconv.Itoa(maxGraphColors), strconv.Itoa(maxGreedySweepColor)} {
			if !strings.Contains(msg, want) {
				t.Errorf("algos %v: refusal %q does not name %s", algos, msg, want)
			}
		}
	}
	m := scrapeMetrics(t, ts.URL)
	if got := m[`mmserve_sweeps_refused_total{reason="palette"}`]; got != 2 {
		t.Errorf("palette refusals = %v, want 2", got)
	}
	if got := m["sweep_cells_planned_total"]; got != 0 {
		t.Errorf("cells planned = %v, want 0: a refused sweep must not start", got)
	}

	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Graphs: []string{gr.ID}, Algos: []string{"reduced", "proposal"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-greedy sweep status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if _, trailer := ndjson(t, readAll(t, resp)); trailer == nil || !trailer.Done || trailer.Rows != 2 {
		t.Fatalf("non-greedy trailer = %+v", trailer)
	}
	if got := scrapeMetrics(t, ts.URL)["sweep_cells_planned_total"]; got != 2 {
		t.Errorf("cells planned after the non-greedy sweep = %v, want 2", got)
	}
}

// TestSweepLargePaletteGraph sweeps a stored graph at the largest palette
// the store accepts. Its colours stop at 2, so every algorithm runs a few
// rounds on three nodes; no layer between the store and the engine may
// size anything by k, or this cell would need gigabytes.
func TestSweepLargePaletteGraph(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var gr GraphResponse
	body := readAll(t, postJSON(t, ts.URL+"/v1/graphs", GraphRequest{N: 3, K: maxGraphColors, Edges: [][3]int{{0, 1, 1}, {1, 2, 2}}}))
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Graphs:      []string{gr.ID},
		Algos:       []string{"greedy", "reduced", "proposal"},
		CheckBounds: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", resp.StatusCode, readAll(t, resp))
	}
	rows, trailer := ndjson(t, readAll(t, resp))
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if trailer == nil || !trailer.Done || trailer.Rows != 3 || trailer.Violations != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
	for _, r := range rows {
		if r.Matched != 1 { // a two-edge path's maximal matchings have one edge
			t.Fatalf("row %s matched = %d, want 1", r.ID(), r.Matched)
		}
	}
}

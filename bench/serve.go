package bench

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// serveSpec is the serve-mixed traffic: an in-process mmserve on a
// loopback listener, one client in the same process, at most inFlight
// requests and connections at a time.
//
// The measuring time splits in two phases. The fixed phase sends at rate
// requests/s, open loop, on the loadgen.Profile.SlotAt schedule; latency is
// timed from each request's due instant, so time spent queued behind a
// stall counts. The saturation phase then runs inFlight closed-loop
// clients back to back; its completion rate is ops_per_s, the server's
// capacity under this mix.
type serveSpec struct {
	rate       float64
	fixedShare float64
	inFlight   int
	maxSweeps  int
	maxGraphs  int

	smoke      []string // single-cell smoke specs, fresh seeds: cache misses
	smokeAlgos []string
	poolSpec   string // hot set: poolSeeds seeds of one mid-size instance
	poolSeeds  int
	graphN     int // nodes of POSTed and pre-submitted graphs
	stored     int // graphs submitted during set-up, swept by later requests
}

// The request mix, as cumulative shares of slots.
const (
	shareSmoke  = 0.75
	sharePool   = 0.90 // +15% hot-set cells
	sharePut    = 0.95 // +5% POST /v1/graphs
	digestSlots = 256  // fixed-phase slots whose bodies the digest covers
	lateLimit   = 5 * time.Second
	lagLimitMs  = 1.0
	// fixedWindow and satWindow slice the two phases into the windows the
	// end-to-end metrics are reduced over (see windowMetrics): a window the
	// hypervisor stole CPU time in can be left out.
	fixedWindow = time.Second
	satWindow   = 500 * time.Millisecond
)

func defaultServeSpec(nproc int) *serveSpec {
	return &serveSpec{
		rate:       400,
		fixedShare: 0.7,
		inFlight:   nproc,
		maxSweeps:  2 * nproc,
		// Every POST stores a new graph, so the store must outlast a run:
		// the default cap of 256 fills within seconds at saturation.
		maxGraphs:  1 << 14,
		smoke:      smokeGrids(),
		smokeAlgos: []string{"greedy", "reduced", "proposal"},
		poolSpec:   "matching-union:n=4096,k=6",
		poolSeeds:  8,
		graphN:     256,
		stored:     8,
	}
}

type reqKind int

const (
	kindSmoke reqKind = iota
	kindPool
	kindPut
	kindStored
)

// request is one generated request; slot names it in the schedule.
type request struct {
	slot    int
	kind    reqKind
	path    string
	body    []byte
	graphID string // kindPut: the content address the server must answer
}

// mix turns (seed, slot) into requests. Everything is derived with
// gen.SubSeed, so a slot's request is the same in every run of a seed.
type mix struct {
	spec   *serveSpec
	seed   int64
	stored []serve.GraphRequest
	ids    []string // EdgeListIDs of stored
}

func newMix(spec *serveSpec, seed int64) (*mix, error) {
	m := &mix{spec: spec, seed: seed}
	for i := 0; i < spec.stored; i++ {
		g, err := m.graph(gen.SubSeed(seed, "mmbench-stored", strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		m.stored = append(m.stored, g)
		m.ids = append(m.ids, gen.EdgeListID(g.N, g.K, g.Edges))
	}
	return m, nil
}

// graph generates a submitted-graph body: a matching-union instance as an
// edge list.
func (m *mix) graph(seed int64) (serve.GraphRequest, error) {
	inst, _, err := gen.BuildSpec("matching-union:n="+strconv.Itoa(m.spec.graphN)+",k=6", seed)
	if err != nil {
		return serve.GraphRequest{}, err
	}
	g := inst.G
	req := serve.GraphRequest{N: g.N(), K: g.K()}
	for _, e := range g.Edges() {
		req.Edges = append(req.Edges, [3]int{e.U, e.V, int(e.Color)})
	}
	return req, nil
}

func (m *mix) request(slot int) (request, error) {
	tag := strconv.Itoa(slot)
	u := float64(uint64(gen.SubSeed(m.seed, "mmbench-mix", tag))>>11) / (1 << 53)
	pick := uint64(gen.SubSeed(m.seed, "mmbench-pick", tag))
	r := request{slot: slot, path: "/v1/sweep"}
	var body any
	switch {
	case u < shareSmoke:
		r.kind = kindSmoke
		s := m.spec
		body = serve.SweepRequest{
			Grids:       []string{s.smoke[pick%uint64(len(s.smoke))]},
			Algos:       []string{s.smokeAlgos[(pick/uint64(len(s.smoke)))%uint64(len(s.smokeAlgos))]},
			Seed:        gen.SubSeed(m.seed, "mmbench-slot", tag),
			CheckBounds: true,
		}
	case u < sharePool:
		r.kind = kindPool
		body = m.poolRequest(int(pick % uint64(m.spec.poolSeeds)))
	case u < sharePut:
		r.kind, r.path = kindPut, "/v1/graphs"
		g, err := m.graph(gen.SubSeed(m.seed, "mmbench-put", tag))
		if err != nil {
			return r, err
		}
		r.graphID = gen.EdgeListID(g.N, g.K, g.Edges)
		body = g
	default:
		r.kind = kindStored
		body = serve.SweepRequest{
			Graphs:      []string{m.ids[pick%uint64(len(m.ids))]},
			Algos:       []string{"greedy"},
			CheckBounds: true,
		}
	}
	b, err := json.Marshal(body)
	r.body = b
	return r, err
}

func (m *mix) poolRequest(j int) serve.SweepRequest {
	return serve.SweepRequest{
		Grids:       []string{m.spec.poolSpec},
		Algos:       []string{"greedy"},
		Seed:        gen.SubSeed(m.seed, "mmbench-pool", strconv.Itoa(j)),
		CheckBounds: true,
	}
}

// target is one in-process server with its client.
type target struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}

	// Traced targets only.
	traced    bool
	rows      rowTotals // every sweep row read from this server
	prog      *cappedBuffer
	spans     *spanLog
	mu        sync.Mutex
	handler   map[int]time.Duration // by X-Bench-Slot
	resolve   []float64             // ms, every InstanceProvider call
	built     []float64             // ms, calls that returned an instance for the first time
	seen      map[*gen.Instance]bool
	edgesSeen int64
}

func newTarget(spec *serveSpec, traced bool) (*target, error) {
	t := &target{served: make(chan struct{})}
	opts := serve.Options{MaxSweeps: spec.maxSweeps, MaxGraphs: spec.maxGraphs, Log: log.New(io.Discard, "", 0)}
	if traced {
		t.traced, t.prog, t.spans = true, &cappedBuffer{}, &spanLog{}
		t.handler, t.seen = map[int]time.Duration{}, map[*gen.Instance]bool{}
		opts.Trace = obs.NewTracer(t.prog)
		opts.WrapProvider = func(p sweep.InstanceProvider) sweep.InstanceProvider { return &timedResolve{inner: p, t: t} }
	}
	t.srv = serve.NewServer(opts)
	h := t.srv.Handler()
	if traced {
		h = t.timedHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.base = "http://" + ln.Addr().String()
	t.hs = &http.Server{Handler: h}
	go func() {
		defer close(t.served)
		_ = t.hs.Serve(ln) // returns http.ErrServerClosed once close is called
	}()
	t.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     spec.inFlight,
		MaxIdleConnsPerHost: spec.inFlight,
		DisableCompression:  true,
	}}
	return t, nil
}

// close stops the server and waits for its Serve loop to return.
func (t *target) close() {
	_ = t.hs.Close() // an error here only reports listener close races; Serve still returns
	<-t.served
	t.client.CloseIdleConnections()
}

// timedHandler wraps the server's handler, timing each request by its
// X-Bench-Slot header.
func (t *target) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		slot, err := strconv.Atoi(r.Header.Get("X-Bench-Slot"))
		if err != nil {
			return // a scrape or other untagged request
		}
		t.spans.add("handler", strconv.Itoa(slot), t0, d)
		t.mu.Lock()
		t.handler[slot] = d
		t.mu.Unlock()
	})
}

// timedResolve is the Options.WrapProvider seam: it times instance
// resolution (cache, store and construction) and counts first sightings
// of an instance as builds.
type timedResolve struct {
	inner sweep.InstanceProvider
	t     *target
}

// Instance implements sweep.InstanceProvider.
func (p *timedResolve) Instance(spec sweep.InstanceSpec) (*gen.Instance, error) {
	t0 := time.Now()
	inst, err := p.inner.Instance(spec)
	d := time.Since(t0)
	p.t.spans.add("resolve", spec.ID(), t0, d)
	p.t.mu.Lock()
	defer p.t.mu.Unlock()
	p.t.resolve = append(p.t.resolve, ms(d))
	if inst != nil && !p.t.seen[inst] {
		p.t.seen[inst] = true
		p.t.built = append(p.t.built, ms(d))
		p.t.edgesSeen += int64(inst.G.NumEdges())
	}
	return inst, err
}

// rowTotals sums the sweep rows the client read.
type rowTotals struct {
	rows, rowBytes              int
	rounds, messages, wireBytes int64
}

func (a *rowTotals) add(b rowTotals) {
	a.rows += b.rows
	a.rowBytes += b.rowBytes
	a.rounds += b.rounds
	a.messages += b.messages
	a.wireBytes += b.wireBytes
}

// response is what the client read for one request.
type response struct {
	hash [32]byte
	rowTotals
}

// send issues one request and reads its body to the end; done is the
// instant the last byte arrived. Output checks run after done.
func send(ctx context.Context, t *target, chk *checker, r request) (resp response, done time.Time, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return resp, time.Now(), err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Bench-Slot", strconv.Itoa(r.slot))
	hr, err := t.client.Do(hreq)
	if err != nil {
		return resp, time.Now(), err
	}
	body, err := io.ReadAll(hr.Body)
	done = time.Now()
	hr.Body.Close()
	if err != nil {
		return resp, done, err
	}
	resp.hash = sha256.Sum256(body)
	if r.kind == kindPut {
		var g serve.GraphResponse
		if hr.StatusCode != http.StatusCreated {
			return resp, done, fmt.Errorf("slot %d: POST /v1/graphs: status %d", r.slot, hr.StatusCode)
		}
		if err := json.Unmarshal(body, &g); err != nil || g.ID != r.graphID {
			return resp, done, fmt.Errorf("slot %d: graph stored as %q, want %q (%v)", r.slot, g.ID, r.graphID, err)
		}
		return resp, done, nil
	}
	if hr.StatusCode != http.StatusOK {
		return resp, done, fmt.Errorf("slot %d: sweep status %d: %s", r.slot, hr.StatusCode, bytes.TrimSpace(body))
	}
	err = readSweep(body, chk, &resp.rowTotals)
	if t.traced {
		t.mu.Lock()
		t.rows.add(resp.rowTotals)
		t.mu.Unlock()
	}
	return resp, done, err
}

// readSweep checks an NDJSON sweep body: every row passes the checker and
// the body ends in a done-trailer that counts them, with no violations.
func readSweep(body []byte, chk *checker, resp *rowTotals) error {
	var trailer *serve.SweepTrailer
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if trailer != nil {
			return errors.New("sweep body continues after its trailer")
		}
		var probe struct {
			Done  *bool  `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("torn sweep body: %w", err)
		}
		switch {
		case probe.Error != "":
			return fmt.Errorf("in-band sweep error: %s", probe.Error)
		case probe.Done != nil:
			trailer = &serve.SweepTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				return err
			}
		default:
			var row sweep.Result
			if err := json.Unmarshal(line, &row); err != nil {
				return fmt.Errorf("bad sweep row: %w", err)
			}
			chk.row(&row, instanceID(&row))
			resp.rows++
			resp.rowBytes += len(line) + 1
			resp.rounds += int64(row.Rounds)
			resp.messages += int64(row.Messages)
			resp.wireBytes += int64(row.Bytes)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	switch {
	case trailer == nil || !trailer.Done:
		return fmt.Errorf("sweep body has no done-trailer (%d rows)", resp.rows)
	case trailer.Rows != resp.rows:
		return fmt.Errorf("trailer counts %d rows, body has %d", trailer.Rows, resp.rows)
	case trailer.Violations != 0:
		return fmt.Errorf("trailer reports %d violations", trailer.Violations)
	}
	return nil
}

// slotTimes is one fixed-phase request's client-side timeline: due on the
// schedule, ready once due and the generator free, fired, holding an
// in-flight token, done.
type slotTimes struct {
	due, ready, fire, got, done time.Time
	resp                        response
	kind                        reqKind
	err                         error
}

// serveRun is one run of serve-mixed.
type serveRun struct {
	spec  *serveSpec
	mix   *mix
	check *checker
}

// setup starts a server, submits the stored graphs and warms the hot set
// and the connections.
func (s *serveRun) setup(ctx context.Context, traced bool) (*target, error) {
	t, err := newTarget(s.spec, traced)
	if err != nil {
		return nil, err
	}
	warm := func(r request) error {
		_, _, err := send(ctx, t, s.check, r)
		return err
	}
	for i, g := range s.mix.stored {
		body, err := json.Marshal(g)
		if err == nil {
			err = warm(request{slot: -1 - i, kind: kindPut, path: "/v1/graphs", body: body, graphID: s.mix.ids[i]})
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("bench: set-up: %w", err)
		}
	}
	for j := 0; j < s.spec.poolSeeds; j++ {
		body, err := json.Marshal(s.mix.poolRequest(j))
		if err == nil {
			err = warm(request{slot: -100 - j, kind: kindPool, path: "/v1/sweep", body: body})
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("bench: set-up: %w", err)
		}
	}
	return t, nil
}

// fixed sends reqs open loop at the spec's rate. Requests still running
// lateLimit after the phase ends are cancelled and count as failed. It also
// returns a window per fixedWindow of the phase, for the host's steal and
// the resident set.
func (s *serveRun) fixed(ctx context.Context, t *target, reqs []request, dur time.Duration) ([]slotTimes, []window, time.Duration) {
	prof := loadgen.Profile{Rate: s.spec.rate, Hold: dur}
	out := make([]slotTimes, len(reqs))
	tokens := make(chan struct{}, s.spec.inFlight)
	start := time.Now()
	rctx, cancel := context.WithDeadline(ctx, start.Add(dur+lateLimit))
	defer cancel()
	var wg sync.WaitGroup
	var prevGot time.Time
	var done atomic.Int64
	stop := make(chan struct{})
	sampled := sampleWindows(fixedWindow, done.Load, stop)
	for i, r := range reqs {
		due := start.Add(prof.SlotAt(i))
		sleepUntil(due)
		fire := time.Now()
		tokens <- struct{}{}
		st := &out[i]
		st.due, st.fire, st.got, st.kind = due, fire, time.Now(), r.kind
		// The generator could not fire before the slot was due, nor before
		// the previous slot got its token; lateness beyond both is its own.
		st.ready = due
		if prevGot.After(due) {
			st.ready = prevGot
		}
		prevGot = st.got
		wg.Add(1)
		go func(r request) {
			defer wg.Done()
			defer func() { <-tokens }()
			st.resp, st.done, st.err = send(rctx, t, s.check, r)
			done.Add(1)
		}(r)
	}
	fired := time.Since(start)
	wg.Wait()
	close(stop)
	return out, <-sampled, fired - dur
}

// sleepUntil returns at t. It sleeps in nanosleep(2) rather than time.Sleep:
// an idle Go runtime waits for its timers in epoll_wait, whose timeout is in
// whole milliseconds, so time.Sleep fired fixed-phase slots up to 1.05 ms
// late at p99, against 0.13 ms for nanosleep on the same 2-core host.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only ends this sleep early; the loop sleeps the rest
	}
}

// sampleWindows records a window every interval, counting ops with count,
// until stop is closed; then it sends the windows. A phase shorter than
// one window gets one window.
func sampleWindows(interval time.Duration, count func() int64, stop <-chan struct{}) <-chan []window {
	out := make(chan []window, 1)
	go func() {
		var ws []window
		tick := time.NewTicker(interval)
		defer tick.Stop()
		prev, prevN, prevT := readUsage(false), count(), time.Now()
		sample := func(now time.Time) {
			cur, n := readUsage(false), count()
			ws = append(ws, newWindow(int(n-prevN), now.Sub(prevT), prev, cur))
			prev, prevN, prevT = cur, n, now
		}
		for {
			select {
			case now := <-tick.C:
				sample(now)
			case <-stop:
				if len(ws) == 0 {
					sample(time.Now())
				}
				out <- ws
				return
			}
		}
	}()
	return out
}

// saturate runs inFlight closed-loop clients for dur and returns how many
// requests completed and failed, with the completions, CPU time and RSS of
// every satWindow. Slots start at base, clear of the fixed phase's.
func (s *serveRun) saturate(ctx context.Context, t *target, dur time.Duration, base int) (ok, failed int64, ws []window) {
	var next, nok, nfail atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < s.spec.inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				r, err := s.mix.request(base + int(next.Add(1)))
				if err == nil {
					_, _, err = send(ctx, t, s.check, r)
				}
				if err != nil {
					nfail.Add(1)
					s.check.fail("%v", err)
					continue
				}
				nok.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	sampled := sampleWindows(satWindow, nok.Load, stop)
	wg.Wait()
	close(stop)
	ws = <-sampled
	return nok.Load(), nfail.Load(), ws
}

// runServe sets the server up setupRepeats times, then runs the fixed and
// the saturation phase. A traced run also starts an untraced server and
// splits the saturation phase between the two, for the tracing overhead.
func runServe(ctx context.Context, w Workload, o Options, rep *Report, chk *checker) error {
	spec := w.serve
	m, err := newMix(spec, o.Seed)
	if err != nil {
		return err
	}
	s := &serveRun{spec: spec, mix: m, check: chk}
	fixedDur := time.Duration(o.Seconds * spec.fixedShare * float64(time.Second))
	satDur := time.Duration(o.Seconds*float64(time.Second)) - fixedDur

	// Set-up starts the server, submits the stored graphs, warms the hot
	// set and generates every fixed-phase request body.
	var t *target
	var reqs []request
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if t != nil {
			t.close()
		}
		t0 := time.Now()
		if t, err = s.setup(ctx, o.Trace); err != nil {
			return err
		}
		reqs = make([]request, loadgen.Profile{Rate: spec.rate, Hold: fixedDur}.Slots())
		for j := range reqs {
			if reqs[j], err = m.request(j); err != nil {
				t.close()
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer t.close()
	return s.measure(ctx, t, reqs, fixedDur, satDur, o, rep, median(setups))
}

// measure runs both phases on t and fills the report.
func (s *serveRun) measure(ctx context.Context, t *target, reqs []request, fixedDur, satDur time.Duration,
	o Options, rep *Report, setupS float64) error {
	var plain *target
	if o.Trace {
		var err error
		if plain, err = s.setup(ctx, false); err != nil {
			return err
		}
		defer plain.close()
	}
	cache0 := t.srv.CacheStats()
	u0 := readUsage(o.Trace)
	slots, timeWs, backlog := s.fixed(ctx, t, reqs, fixedDur)
	satBase := 1 << 30
	var satOK, satFailed int64
	var sat []window
	var overhead float64
	if o.Trace {
		pOK, pFailed, pWs := s.saturate(ctx, plain, satDur/2, satBase)
		tOK, tFailed, tWs := s.saturate(ctx, t, satDur-satDur/2, 2*satBase)
		satOK, satFailed = pOK+tOK, pFailed+tFailed
		pRate, _, _, _, _ := windowMetrics(pWs)
		tRate, _, _, _, _ := windowMetrics(tWs)
		overhead = ratio(pRate, tRate) - 1
	} else {
		satOK, satFailed, sat = s.saturate(ctx, t, satDur, satBase)
	}
	u1 := readUsage(o.Trace)
	cache1 := t.srv.CacheStats()

	var lat, lag, wait []float64
	var failed int64
	h := sha256.New()
	// fixedWs cuts the fixed phase into windows of fixedWindow's worth of
	// slots, each with the host's steal in the matching stretch of time.
	perWindow := min(int(s.spec.rate*fixedWindow.Seconds()), len(slots))
	var fixedWs []window
	for i, st := range slots {
		if st.err != nil {
			failed++
			s.check.fail("%v", st.err)
			continue
		}
		if i%perWindow == 0 && len(slots)-i >= perWindow/2 {
			fixedWs = append(fixedWs, window{dur: fixedWindow})
			if j := len(fixedWs) - 1; j < len(timeWs) {
				fixedWs[j].steal = timeWs[j].steal
			}
		}
		d, l := ms(st.done.Sub(st.due)), ms(st.fire.Sub(st.ready))
		lat = append(lat, d)
		lag = append(lag, l)
		if w := len(fixedWs) - 1; w >= 0 {
			fixedWs[w].ops++
			fixedWs[w].lat = append(fixedWs[w].lat, d)
			fixedWs[w].lag = append(fixedWs[w].lag, l)
		}
		wait = append(wait, ms(st.got.Sub(st.fire)))
		if i < digestSlots {
			h.Write(st.resp.hash[:])
		}
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	s.check.verifySamples(sweep.Providers(s.localStore(), sweep.RegistryProvider{}))

	ops := int64(len(slots)) + satOK + satFailed
	rep.Result.Attempted = ops
	rep.Result.Failed = failed + satFailed
	rep.Samples["fixed_requests"] = len(slots)
	rep.Samples["saturation_requests"] = int(satOK + satFailed)
	rep.Samples["latency"] = len(lat)
	rep.Samples["latency_windows"] = len(fixedWs)
	rep.PeakRSSMB = float64(u1.maxRSSKB) / 1024
	rep.noteSteal(u0, u1)
	// The guard reads the lag of the windows the latency numbers come from.
	var keptLag []float64
	for _, w := range cleanWindows(fixedWs) {
		keptLag = append(keptLag, w.lag...)
	}
	lagP99 := quantile(keptLag, 0.99)
	if lagP99 > lagLimitMs {
		if o.Trace {
			rep.Unresolved = append(rep.Unresolved, "client.latency_p99_ms")
		} else {
			rep.Unresolved = append(rep.Unresolved, "latency_p50_ms", "latency_p90_ms")
		}
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"unresolved: generator lag p99 %.3f ms exceeds %.0f ms, so the client limits the latency numbers", lagP99, lagLimitMs))
	}
	if backlog > 10*time.Millisecond {
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"backlog: the fixed phase fired its last request %v after the phase ended", backlog.Round(time.Millisecond)))
	}
	mt := rep.metrics
	if !o.Trace {
		_, _, p50, p90, _ := windowMetrics(fixedWs)
		rate, cpu, _, _, _ := windowMetrics(sat)
		// Resident memory comes from the fixed phase, which sends the same
		// requests in every run: every POST adds a graph to the store, so
		// in the saturation phase memory would grow with throughput.
		var rss []float64
		for _, w := range timeWs {
			rss = append(rss, w.rssMB)
		}
		mt.set("setup_s", setupS)
		mt.set("ops_per_s", rate)
		mt.set("latency_p50_ms", p50)
		mt.set("latency_p90_ms", p90)
		mt.set("cpu_ms_per_op", cpu)
		mt.set("rss_mb", median(rss))
		return nil
	}
	return s.layers(t, slots, lat, lag, wait, cache0, cache1, u0, u1, ops, overhead, o, rep)
}

// layers fills a traced run's per-layer metrics from the handler and
// provider wrappers, the rows read, CacheStats and a /metrics scrape.
func (s *serveRun) layers(t *target, slots []slotTimes, lat, lag, wait []float64, cache0, cache1 sweep.CacheStats,
	u0, u1 usage, ops int64, overhead float64, o Options, rep *Report) error {
	snap, err := scrape(t)
	if err != nil {
		return err
	}
	histSum := func(name string) float64 {
		if h, ok := snap.Histogram(name); ok {
			return h.Sum
		}
		return 0
	}
	runHist, _ := snap.Histogram("sweep_run_seconds")
	refused := 0.0
	if f, ok := snap.Families["mmserve_sweeps_refused_total"]; ok {
		for _, ser := range f.Series {
			refused += ser.Value
		}
	}
	peak, _ := snap.Value("sweep_reorder_buffered_peak")

	t.mu.Lock()
	defer t.mu.Unlock()
	var handler, put, transport []float64
	for i, st := range slots {
		if st.err != nil {
			continue
		}
		d, ok := t.handler[i]
		if !ok {
			continue
		}
		handler = append(handler, ms(d))
		if st.kind == kindPut {
			put = append(put, ms(d))
		}
		transport = append(transport, ms(st.done.Sub(st.got)-d))
	}
	handlerAll := 0.0
	for _, d := range t.handler {
		handlerAll += d.Seconds()
	}
	prog := t.prog.programSpanSums()
	runS := histSum("sweep_run_seconds")
	covered := prog["resolve"] + prog["run"] + prog["emit"]
	lookups := float64((cache1.Hits + cache1.Misses) - (cache0.Hits + cache0.Misses))
	buildS := sum(t.built) / 1000

	mt := rep.metrics
	mt.set("gen.build_s.sum", buildS)
	mt.set("gen.build_ms.p50", median(t.built))
	mt.set("gen.builds", float64(len(t.built)))
	mt.set("gen.edges_per_s", ratio(float64(t.edgesSeen), buildS))
	mt.set("runtime.run_s.sum", runS)
	mt.set("runtime.run_ms.p50", runHist.Quantile(0.5)*1000)
	rows := t.rows // the same requests /metrics and the program's spans cover
	mt.set("runtime.rounds", float64(rows.rounds))
	mt.set("runtime.messages", float64(rows.messages))
	mt.set("runtime.wire_bytes", float64(rows.wireBytes))
	mt.set("runtime.messages_per_s", ratio(float64(rows.messages), runS))
	mt.set("sweep.emit_s.sum", histSum("sweep_emit_seconds"))
	mt.set("sweep.row_bytes", ratio(float64(rows.rowBytes), float64(rows.rows)))
	mt.set("sweep.busy_frac", ratio(covered, handlerAll))
	mt.set("sweep.reorder_peak", peak)
	mt.set("sweep.violations", 0) // readSweep fails any request whose trailer reports one
	mt.set("serve.handler_ms.p50", quantile(handler, 0.5))
	mt.set("serve.handler_ms.p99", quantile(handler, 0.99))
	mt.set("serve.resolve_ms.p50", median(t.resolve))
	mt.set("serve.cache_hit_ratio", ratio(float64(cache1.Hits-cache0.Hits), lookups))
	mt.set("serve.cache_lookups", lookups)
	mt.set("serve.store_put_ms.p50", median(put))
	mt.set("serve.refused", refused)
	mt.set("serve.run_s.sum", runS)
	mt.set("client.latency_p99_ms", quantile(lat, 0.99))
	mt.set("client.lag_ms.p99", quantile(lag, 0.99))
	mt.set("client.token_wait_ms.p99", quantile(wait, 0.99))
	mt.set("client.transport_ms.p50", quantile(transport, 0.5))
	setGoMetrics(mt, u0, u1, int(ops))
	unaccounted := 1 - ratio(covered, handlerAll)
	mt.set("trace.unaccounted_frac", unaccounted)
	mt.set("trace.overhead_frac", overhead)
	rep.Samples["handler"] = len(handler)
	if unaccounted > 0.10 {
		rep.Findings = append(rep.Findings, fmt.Sprintf(
			"finding: %.1f%% of handler time is outside resolve, run and emit: HTTP routing, JSON decode, "+
				"plan expansion, per-row flushes and the trailer are serve-layer self time", 100*unaccounted))
	}
	return rep.writeTrace(filepath.Join(o.Dir, "trace"), t.spans, t.prog)
}

// scrape reads the server's /metrics.
func scrape(t *target) (*obs.Snapshot, error) {
	resp, err := t.client.Get(t.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: /metrics status %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}

// localStore holds the stored graphs on the benchmark's side, so the
// sequential-greedy oracle can rebuild the instances rows name.
func (s *serveRun) localStore() *serve.GraphStore {
	st := serve.NewGraphStore(len(s.mix.stored))
	for _, g := range s.mix.stored {
		if _, _, err := st.Put(g.N, g.K, g.Edges); err != nil {
			s.check.fail("bench: local store: %v", err)
		}
	}
	return st
}

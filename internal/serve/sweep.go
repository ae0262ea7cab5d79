package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/gen"
	"repro/internal/sweep"
)

// maxSweepBody bounds a POST /v1/sweep body; sweep requests are a few
// hundred bytes of names, never bulk data.
const maxSweepBody = 1 << 20

// SweepRequest is the POST /v1/sweep body. Grids name generated families
// in the mmsweep range DSL; Graphs name stored graphs by their content
// address. At least one of the two must be non-empty.
type SweepRequest struct {
	Grids  []string `json:"grids,omitempty"`
	Graphs []string `json:"graphs,omitempty"`
	// Algos defaults to greedy; "all" is not expanded here — name the
	// algorithms (GET /v1/algos lists them).
	Algos []string `json:"algos,omitempty"`
	// Reps is seeded repetitions per cell (0 = 1).
	Reps int `json:"reps,omitempty"`
	// Seed pins the base seed. Zero means "derive from the request": the
	// server value-addresses a seed from the instance-determining fields,
	// so identical requests are identical sweeps — byte-identical bodies,
	// shared cache entries.
	Seed int64 `json:"seed,omitempty"`
	// CheckBounds verifies the paper's communication contracts per cell;
	// violations are data in the rows and counted in the trailer, never a
	// transport error.
	CheckBounds bool `json:"check_bounds,omitempty"`
	// EngineWorkers > 1 runs cells on the worker-pool engine (results are
	// engine-independent); CellWorkers bounds concurrent cells within this
	// request's slot.
	EngineWorkers int `json:"engine_workers,omitempty"`
	CellWorkers   int `json:"cell_workers,omitempty"`
}

// SweepTrailer is the final NDJSON line of a sweep response. Its presence
// is the success marker: a body whose last line has "done": true delivered
// every row; a body ending in an "error" line (or torn mid-row by a dead
// connection) did not.
type SweepTrailer struct {
	Done       bool `json:"done"`
	Rows       int  `json:"rows"`
	Violations int  `json:"violations"`
}

// requestSeed derives the value-addressed base seed of a request that left
// Seed zero: SubSeed over every instance-determining field, so the seed —
// and therefore every cell, instance and row — is a pure function of the
// request content. Fields that cannot change results (engine/cell workers,
// bounds checking) stay out of the derivation.
func requestSeed(req SweepRequest) int64 {
	if req.Seed != 0 {
		return req.Seed
	}
	// The literal "0" held the place of a since-removed field; it stays so
	// every derived seed keeps its value.
	tags := []string{"mmserve-sweep", strconv.Itoa(req.Reps), "0"}
	tags = append(tags, req.Grids...)
	tags = append(tags, req.Graphs...)
	tags = append(tags, req.Algos...)
	return gen.SubSeed(1, tags...)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.metrics.refuse("draining")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Claim a sweep slot or refuse immediately: the pool bounds how many
	// sweeps stream at once, and a queue here would just hide the bound.
	select {
	case s.slots <- struct{}{}:
	default:
		s.metrics.refuse("saturated")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "all sweep slots busy")
		return
	}
	s.metrics.slotClaimed()
	defer func() { <-s.slots; s.metrics.slotReleased() }()
	s.active.Add(1)
	defer s.active.Add(-1)

	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody))
	// Strict: a misspelt or removed field is a 400 naming it, never a
	// silently different sweep.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge, "sweep body exceeds the size limit")
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad sweep body: %v", err))
		return
	}

	cfg := sweep.Config{
		Grids:         req.Grids,
		Algos:         req.Algos,
		Reps:          req.Reps,
		Seed:          requestSeed(req),
		CheckBounds:   req.CheckBounds,
		EngineWorkers: req.EngineWorkers,
		CellWorkers:   req.CellWorkers,
		Provider:      s.provider,
		Metrics:       s.sweepMetrics,
		Tracer:        s.tracer,
	}
	greedy := len(req.Algos) == 0 || slices.Contains(req.Algos, "greedy")
	for _, id := range req.Graphs {
		sg, ok := s.store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("graph %s is not in the store (submit it via POST /v1/graphs first)", id))
			return
		}
		if greedy && sg.maxColor > maxGreedySweepColor {
			s.metrics.refuse("palette")
			writeError(w, http.StatusUnprocessableEntity, fmt.Sprintf(
				"graph %s uses colours up to %d, over the greedy sweep limit of %d (a row holds one per_round entry per greedy round); sweep it without greedy",
				id, sg.maxColor, maxGreedySweepColor))
			return
		}
		cfg.Instances = append(cfg.Instances, sweep.InstanceRef{ID: sg.ID, Params: sg.Params()})
	}

	// Validate the whole request — grid syntax, algorithm names, emptiness
	// — before committing to a 200: after the first row streams, errors
	// can only be reported in-band.
	cells, err := sweep.Expand(cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Sweep-Seed", strconv.FormatInt(cfg.Seed, 10))
	w.Header().Set("Sweep-Cells", strconv.Itoa(cells))

	// Rows stream as cells finish: JSONLSink over the response, flushed
	// per row so long sweeps deliver progressively and a drained shutdown
	// ends on a whole row. The trailer is the success marker.
	fw := flushWriter{w: w, rc: http.NewResponseController(w)}
	var trailer SweepTrailer
	sink := sweep.MultiSink(
		sweep.NewJSONLSink(fw),
		sweep.SinkFunc(func(row *sweep.Result) error {
			trailer.Rows++
			trailer.Violations += len(row.Violations)
			return nil
		}),
	)
	sp := s.tracer.Start("sweep", "seed", strconv.FormatInt(cfg.Seed, 10))
	if _, err := sweep.Stream(r.Context(), cfg, sink); err != nil {
		sp.End("error", err.Error())
		// The 200 header is long gone; the error line is the in-band
		// protocol, and the missing trailer marks the body incomplete.
		s.log.Printf("sweep seed=%d: %v", cfg.Seed, err)
		json.NewEncoder(fw).Encode(map[string]string{"error": err.Error()})
		return
	}
	sp.End("rows", strconv.Itoa(trailer.Rows))
	trailer.Done = true
	json.NewEncoder(w).Encode(trailer)
	s.log.Printf("sweep seed=%d: %d rows, %d violations", cfg.Seed, trailer.Rows, trailer.Violations)
}

// flushWriter adapts an http.ResponseWriter to the per-row flush hook
// sweep.JSONLSink drives (`Flush() error`), pushing each row through the
// server's buffers to the client as it is written.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (fw flushWriter) Write(p []byte) (int, error) { return fw.w.Write(p) }

// Flush implements the sink's flusher hook. A transport without flush
// support (some test recorders) degrades to buffered writes.
func (fw flushWriter) Flush() error {
	if err := fw.rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// maxGraphBody bounds a POST /v1/graphs body: 64 MiB is ~1.3M edges of
// worst-case JSON, far past anything the in-memory store would accept.
const maxGraphBody = 64 << 20

// GraphRequest is the POST /v1/graphs body: an edge-coloured graph as
// {u, v, colour} triples, nodes 0…n-1, colours 1…k. The same graph
// submitted with edges reordered or endpoints swapped is the same graph —
// content addressing canonicalises before hashing.
type GraphRequest struct {
	N     int      `json:"n"`
	K     int      `json:"k"`
	Edges [][3]int `json:"edges"`
}

// GraphResponse answers graph submission and lookup: the content address
// to sweep under, the observable shape, and (on submission) whether this
// request created the entry.
type GraphResponse struct {
	StoredGraph
	// Created is true when this submission stored the graph, false when
	// the identical graph was already present (idempotent resubmission).
	Created bool `json:"created"`
}

func (s *Server) handleGraphSubmit(w http.ResponseWriter, r *http.Request) {
	var req GraphRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGraphBody))
	if err := dec.Decode(&req); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge, "graph body exceeds the size limit")
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad graph body: %v", err))
		return
	}
	sg, created, err := s.store.Put(req.N, req.K, req.Edges)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if strings.Contains(err.Error(), "store full") {
			code = http.StatusInsufficientStorage
		}
		writeError(w, code, err.Error())
		return
	}
	if created {
		s.log.Printf("graph %s stored (n=%d k=%d edges=%d)", sg.ID, sg.N, sg.K, sg.Edges)
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, GraphResponse{StoredGraph: *sg, Created: created})
}

func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such graph")
		return
	}
	writeJSON(w, http.StatusOK, GraphResponse{StoredGraph: *sg})
}

// isBodyTooLarge reports whether a decode failure was MaxBytesReader's
// limit (an *http.MaxBytesError), which deserves 413 rather than 400.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

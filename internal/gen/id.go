package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file defines the canonical content addresses of instances — the
// naming layer shared by the sweep driver's JSONL rows, the instance cache,
// and the serving layer's graph store. Two addresses exist:
//
//   - a *generated* instance is named by what generates it:
//     InstanceID(scenario, params, seed) — deterministic construction means
//     the recipe IS the content;
//   - a *submitted* instance (a raw edge list POSTed to mmserve) has no
//     recipe, so EdgeListID hashes the canonicalised edges themselves.
//
// Both are stable across processes and sessions, and both round-trip: an
// InstanceID parses back to its (scenario, params, seed), and an EdgeListID
// is invariant under edge reordering and endpoint swaps.

// GraphIDPrefix marks content-addressed raw-graph IDs. The prefix keeps the
// two address families disjoint: no registered scenario name contains "-"
// followed by hex the way a hash does, and providers route on it.
const GraphIDPrefix = "graph-"

// InstanceID is the canonical content address of a generated instance:
// "scenario:params@seed" with params in the sorted spec rendering. It
// agrees field-by-field with the sweep's JSONL rows (scenario, params,
// seed), so a cache key derived from a row and one derived from a request
// name the same blob.
func InstanceID(scenario string, p Params, seed int64) string {
	return fmt.Sprintf("%s:%s@%d", scenario, p.String(), seed)
}

// ParseInstanceID inverts InstanceID. It does not check the scenario exists
// — submitted-graph addresses ("graph-…:k=…,n=…@seed") parse too.
func ParseInstanceID(id string) (scenario string, p Params, seed int64, err error) {
	at := strings.LastIndexByte(id, '@')
	if at < 0 {
		return "", nil, 0, fmt.Errorf("gen: instance ID %q has no @seed suffix", id)
	}
	seed, err = strconv.ParseInt(id[at+1:], 10, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("gen: instance ID %q: bad seed: %w", id, err)
	}
	scenario, rest, hasParams := strings.Cut(id[:at], ":")
	if scenario == "" {
		return "", nil, 0, fmt.Errorf("gen: instance ID %q has no scenario", id)
	}
	p = Params{}
	if hasParams && rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return "", nil, 0, fmt.Errorf("gen: instance ID %q: malformed parameter %q", id, kv)
			}
			f, ferr := strconv.ParseFloat(val, 64)
			if ferr != nil {
				return "", nil, 0, fmt.Errorf("gen: instance ID %q: parameter %s: %w", id, key, ferr)
			}
			p[key] = f
		}
	}
	return scenario, p, seed, nil
}

// EdgeListID is the canonical content address of a raw edge list: a
// "graph-" prefixed hex digest of (n, k, canonicalised edges). Each edge is
// an {u, v, colour} triple; the address is invariant under edge reordering
// and under swapping an edge's endpoints, so two clients submitting the
// same graph in different orders hit the same cache entry. The digest is
// SHA-256 truncated to 128 bits — far past collision concerns at any
// realistic store size, short enough to live inside JSONL cell IDs.
func EdgeListID(n, k int, edges [][3]int) string {
	canon := make([][3]int, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		canon[i] = [3]int{u, v, e[2]}
	}
	sort.Slice(canon, func(a, b int) bool {
		if canon[a][0] != canon[b][0] {
			return canon[a][0] < canon[b][0]
		}
		if canon[a][1] != canon[b][1] {
			return canon[a][1] < canon[b][1]
		}
		return canon[a][2] < canon[b][2]
	})
	h := sha256.New()
	var buf [8]byte
	writeInt := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	writeInt(n)
	writeInt(k)
	writeInt(len(canon))
	for _, e := range canon {
		writeInt(e[0])
		writeInt(e[1])
		writeInt(e[2])
	}
	sum := h.Sum(nil)
	return GraphIDPrefix + hex.EncodeToString(sum[:16])
}

// IsGraphID reports whether the ID addresses a submitted raw graph (as
// opposed to a registered scenario family).
func IsGraphID(id string) bool { return strings.HasPrefix(id, GraphIDPrefix) }

// Package loadgen is the sustained-traffic load generator behind
// cmd/mmloadgen: a Pacer that emits request slots at a target rate
// through linear ramp-up / hold / ramp-down phases under bounded
// concurrency, a deterministic TrafficMix that assigns each slot a
// weighted scenario cell, a Sender seam (HTTPSender against a live
// mmserve; NullSender for tests), and a Recorder that keeps
// client-observed latencies in an obs.Histogram while scraping the
// target's /metrics so the final report places server-side p50/p99/p999
// next to the client-side ones.
//
// # Determinism contract
//
// A run spec replays exactly. The slot schedule is a pure function of the
// Profile: Profile.Slots and Profile.SlotAt have no hidden state, so two
// runs of one profile fire the same number of slots at the same offsets.
// The traffic mix is a pure function of (seed, mix entries, slot index):
// TrafficMix.Draw derives each slot's cell choice and per-request sweep
// seed through gen.SubSeed streams, so the same spec and seed produce the
// same cell sequence — and because mmserve's sweep responses are
// value-addressed by their request content, each replayed request returns
// a byte-identical NDJSON body. What is NOT deterministic is wall time:
// latencies, skip counts under the Skip policy, and anything downstream
// of them vary run to run; the report records them as measurements, not
// identities.
//
// # Test seams
//
// Every wall-clock dependency is injected. The Pacer sleeps through a
// Clock (WallClock in production, FakeClock in tests — Sleep advances
// virtual time instantly, so the pacer tests assert slot counts and
// backpressure policy without a single time.Sleep), and the Sender is an
// interface, so the whole serve path runs in-process under httptest with
// exact request accounting (the e2e test pins client sends equal to the
// server's /metrics counters).
package loadgen

// Package graph implements finite, properly edge-coloured graphs: the
// concrete problem instances of Hirvonen & Suomela (PODC 2012, §1.2).
//
// A proper k-edge-colouring assigns each edge a colour 1…k such that no two
// edges sharing an endpoint have the same colour. Such graphs are both the
// inputs and the communication topology of the distributed algorithms in
// this repository: nodes are anonymous, and a node refers to its incident
// edges by their colours.
//
// # Representation and invariants
//
// A Graph has exactly one representation: an immutable CSR adjacency. One
// contiguous []Half holds every directed edge, grouped by node through an
// offsets array and sorted by colour within each node; a parallel colours
// slice and a mates index (the position of each half's reciprocal, the
// same undirected edge seen from the peer) complete it. The engines read
// it through Incident, IncidentColors, HalfRange, Halves and Mates, all of
// them index arithmetic on shared slices with zero allocation.
//
// CSRBuilder is the only way to obtain a Graph: it checks simplicity and
// the proper colouring edge by edge, and Build lays out the arrays and
// re-checks symmetry and the colouring. Each node's halves are sorted by colour and
// a proper colouring makes those colours distinct, so the arrays depend
// only on the edge set, never on the order edges were added.
//
// Nothing mutates a Graph after Build, so every read is safe for
// concurrent use with no set-up call, and every returned slice stays valid
// for the graph's lifetime (callers must not modify it). The one derived
// value, the sorted Edges() list, is filled lazily behind an atomic
// pointer: two racing first calls build identical slices and either may
// win.
//
// # Generators and validators
//
// The package provides generators for the paper's instances — the Figure 1
// example, the §1.2 worst-case paths (NewWorstCase), unions of random
// matchings, bounded-degree and k-regular families, windows of
// Cayley-graph trees (FromSystem) — all on top of CSRBuilder, with their
// CSR arrays pinned by a digest golden in the tests. Richer parameterised
// families live in internal/gen.
//
// Validate checks the proper-colouring invariants; CheckMatching checks a
// run's outputs against the matching conditions (M1–M3); SequentialGreedy
// is the centralized greedy oracle the distributed machines are pinned
// against. The View function bridges to the view world: the radius-h
// universal-cover view of a node in a properly coloured graph is exactly a
// finite colour system, because non-backtracking walks are reduced colour
// words.
package graph

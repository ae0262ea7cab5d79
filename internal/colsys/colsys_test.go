package colsys

import (
	"math/rand"
	"testing"

	"repro/internal/group"
)

func mustWord(t *testing.T, s string) group.Word {
	t.Helper()
	w, err := group.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return w
}

func mustFinite(t *testing.T, k int, list string) *Finite {
	t.Helper()
	f, err := ParseFinite(k, list)
	if err != nil {
		t.Fatalf("ParseFinite(%d, %q): %v", k, list, err)
	}
	return f
}

// figure2V is the colour system V = {e, 1, 2, 2·1, 3, 3·1, 3·2} ⊆ G_3 from
// Figure 2 of the paper.
func figure2V(t *testing.T) *Finite {
	t.Helper()
	return mustFinite(t, 3, "e, 1, 2, 2·1, 3, 3·1, 3·2")
}

func TestNewFiniteValidation(t *testing.T) {
	tests := []struct {
		name    string
		k       int
		list    string
		wantErr bool
	}{
		{"valid", 3, "e, 1, 2", false},
		{"empty is just e", 3, "", false},
		{"implicit e", 3, "1", false},
		{"missing prefix", 3, "2·1", true},
		{"colour out of range", 3, "4", true},
		{"k zero", 0, "e", true},
		{"deep chain ok", 3, "1, 1·2, 1·2·3, 1·2·3·1", false},
		{"deep chain broken", 3, "1, 1·2·3", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseFinite(tt.k, tt.list)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestFigure2(t *testing.T) {
	v := figure2V(t)
	if v.Len() != 7 {
		t.Fatalf("|V| = %d, want 7", v.Len())
	}
	if err := CheckValid(v, 4); err != nil {
		t.Fatalf("V invalid: %v", err)
	}

	// U = 3̄V = {e, 1, 2, 3, 3·1, 3·2, 3·2·1}.
	u := Translate(v, mustWord(t, "3"))
	wantU := mustFinite(t, 3, "e, 1, 2, 3, 3·1, 3·2, 3·2·1")
	if !EqualUpTo(u, wantU, 5) {
		t.Errorf("U = 3̄V mismatch: got %v", Nodes(u, 5))
	}

	// Caption assertions: V[1] = U[1], V = V[2] ≠ U[2] ≠ U.
	if !EqualUpTo(Restrict(v, 1), Restrict(u, 1), 5) {
		t.Error("V[1] ≠ U[1]")
	}
	if !EqualUpTo(Restrict(v, 2), v, 5) {
		t.Error("V ≠ V[2]")
	}
	if EqualUpTo(Restrict(v, 2), Restrict(u, 2), 5) {
		t.Error("V[2] = U[2], want ≠")
	}
	if EqualUpTo(Restrict(u, 2), u, 5) {
		t.Error("U[2] = U, want ≠")
	}
}

func TestColorsAndDegree(t *testing.T) {
	v := figure2V(t)
	tests := []struct {
		node   string
		colors []group.Color
	}{
		{"e", []group.Color{1, 2, 3}},
		{"1", []group.Color{1}},
		{"2", []group.Color{1, 2}},
		{"2·1", []group.Color{1}},
		{"3", []group.Color{1, 2, 3}},
		{"3·1", []group.Color{1}},
		{"3·2", []group.Color{2}},
	}
	for _, tt := range tests {
		t.Run(tt.node, func(t *testing.T) {
			w := mustWord(t, tt.node)
			got := Colors(v, w)
			if len(got) != len(tt.colors) {
				t.Fatalf("Colors(%v) = %v, want %v", w, got, tt.colors)
			}
			for i := range got {
				if got[i] != tt.colors[i] {
					t.Fatalf("Colors(%v) = %v, want %v", w, got, tt.colors)
				}
			}
			if Degree(v, w) != len(tt.colors) {
				t.Errorf("Degree(%v) = %d, want %d", w, Degree(v, w), len(tt.colors))
			}
			for _, c := range tt.colors {
				if !HasColor(v, w, c) {
					t.Errorf("HasColor(%v, %v) = false", w, c)
				}
			}
		})
	}
	if HasColor(v, mustWord(t, "1"), group.None) {
		t.Error("HasColor with None colour should be false")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	v := figure2V(t)
	var visited []group.Word
	Walk(v, 2, func(w group.Word) bool {
		visited = append(visited, w)
		return true
	})
	if len(visited) != 7 {
		t.Fatalf("Walk visited %d nodes, want 7", len(visited))
	}
	for i := 1; i < len(visited); i++ {
		if !group.Less(visited[i-1], visited[i]) {
			t.Errorf("Walk order violated at %d: %v then %v", i, visited[i-1], visited[i])
		}
	}

	count := 0
	Walk(v, 2, func(w group.Word) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d, want 3", count)
	}

	// Negative radius or missing root: no visits.
	count = 0
	Walk(v, -1, func(w group.Word) bool { count++; return true })
	if count != 0 {
		t.Errorf("Walk with negative radius visited %d nodes", count)
	}
}

func TestNodesRespectsMaxNorm(t *testing.T) {
	v := figure2V(t)
	if got := len(Nodes(v, 1)); got != 4 {
		t.Errorf("len(Nodes(V, 1)) = %d, want 4", got)
	}
	if got := len(Nodes(v, 0)); got != 1 {
		t.Errorf("len(Nodes(V, 0)) = %d, want 1", got)
	}
}

func TestFull(t *testing.T) {
	f := Full(3)
	if f.K() != 3 {
		t.Fatalf("K = %d", f.K())
	}
	if !IsRegular(f, 3, 3) {
		t.Error("Γ_3 is not 3-regular on the window")
	}
	if err := CheckValid(f, 3); err != nil {
		t.Errorf("Γ_3 invalid: %v", err)
	}
	if got := len(Nodes(f, 2)); got != group.BallSize(3, 2) {
		t.Errorf("|Γ_3[2]| = %d, want %d", got, group.BallSize(3, 2))
	}
	if f.Contains(group.Word{1, 1}) {
		t.Error("Full accepts a non-reduced word")
	}
	if f.Contains(group.Word{4}) {
		t.Error("Full accepts an out-of-range colour")
	}
}

func TestPrune(t *testing.T) {
	// prune(Γ_3, 2): root loses colour 2, every other node keeps degree 3.
	p := Prune(Full(3), 2)
	if err := CheckValid(p, 4); err != nil {
		t.Fatalf("prune invalid: %v", err)
	}
	if got := Degree(p, group.Identity()); got != 2 {
		t.Errorf("deg(prune, e) = %d, want 2", got)
	}
	for _, w := range Nodes(p, 3) {
		if w.IsIdentity() {
			continue
		}
		if got := Degree(p, w); got != 3 {
			t.Errorf("deg(prune, %v) = %d, want 3", w, got)
		}
	}
	if p.Contains(group.Word{2}) {
		t.Error("prune(V, 2) contains 2")
	}
	if p.Contains(group.Word{2, 1}) {
		t.Error("prune(V, 2) contains 2·1")
	}
	if !p.Contains(group.Word{1, 2}) {
		t.Error("prune(V, 2) lost 1·2 (head ≠ 2)")
	}
}

func TestRestrict(t *testing.T) {
	r := Restrict(Full(3), 2)
	if err := CheckValid(r, 4); err != nil {
		t.Fatalf("restrict invalid: %v", err)
	}
	if r.Contains(group.Word{1, 2, 1}) {
		t.Error("V[2] contains norm-3 word")
	}
	if !r.Contains(group.Word{1, 2}) {
		t.Error("V[2] missing norm-2 word")
	}
}

func TestTranslateCollapse(t *testing.T) {
	v := Full(3)
	u1 := mustWord(t, "1·2")
	u2 := mustWord(t, "2·3")
	// Nested translations must compose: ū2(ū1 V) = (u1·u2)‾ V.
	nested := Translate(Translate(v, u1), u2)
	direct := Translate(v, group.Mul(u1, u2))
	if !EqualUpTo(nested, direct, 4) {
		t.Error("nested translation does not compose")
	}
	// Translating by e is the identity operation.
	if Translate(v, group.Identity()).(full) != v.(full) {
		t.Error("Translate by e should return the receiver")
	}
}

func TestLemma3TranslationIsomorphism(t *testing.T) {
	// Lemma 3: if V is a colour system and u ∈ V, then ūV is a colour
	// system and x ↦ ūx preserves adjacency and edge colours.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		v := randomFinite(rng, 4, 4, 0.7)
		nodes := v.Words()
		u := nodes[rng.Intn(len(nodes))]
		tr := Translate(v, u)
		if err := CheckValid(tr, 5); err != nil {
			t.Fatalf("trial %d: ū V invalid: %v (V = %v, u = %v)", trial, err, v, u)
		}
		for _, w := range nodes {
			img := group.Translate(u, w)
			if !tr.Contains(img) {
				t.Fatalf("trial %d: %v ∈ V but ū%v ∉ ūV", trial, w, w)
			}
			// Edge colours are preserved.
			gotC := Colors(tr, img)
			wantC := Colors(v, w)
			if len(gotC) != len(wantC) {
				t.Fatalf("trial %d: C mismatch at %v: %v vs %v", trial, w, gotC, wantC)
			}
			for i := range gotC {
				if gotC[i] != wantC[i] {
					t.Fatalf("trial %d: C mismatch at %v: %v vs %v", trial, w, gotC, wantC)
				}
			}
		}
	}
}

func TestUnion(t *testing.T) {
	a := mustFinite(t, 3, "e, 1, 1·2")
	b := mustFinite(t, 3, "e, 2, 2·3")
	u, err := Union(a, b)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if err := CheckValid(u, 4); err != nil {
		t.Fatalf("union invalid: %v", err)
	}
	for _, s := range []string{"e", "1", "1·2", "2", "2·3"} {
		if !u.Contains(mustWord(t, s)) {
			t.Errorf("union missing %s", s)
		}
	}
	if u.Contains(mustWord(t, "3")) {
		t.Error("union contains 3")
	}

	if _, err := Union(a, Full(4)); err == nil {
		t.Error("Union with mismatched k succeeded")
	}
}

func TestBall(t *testing.T) {
	v := figure2V(t)
	// Ball around 3: (3̄V)[1] = {e, 1, 2, 3}.
	b, err := Ball(v, mustWord(t, "3"), 1)
	if err != nil {
		t.Fatalf("Ball: %v", err)
	}
	want := mustFinite(t, 3, "e, 1, 2, 3")
	if !EqualUpTo(b, want, 3) {
		t.Errorf("Ball = %v, want %v", b, want)
	}

	// Ball centred outside V fails.
	if _, err := Ball(v, mustWord(t, "1·2"), 1); err == nil {
		t.Error("Ball at non-member succeeded")
	}

	// In Γ_k every radius-h ball is the full group ball.
	b2, err := Ball(Full(3), mustWord(t, "1·2·1"), 2)
	if err != nil {
		t.Fatalf("Ball in Γ_3: %v", err)
	}
	if b2.Len() != group.BallSize(3, 2) {
		t.Errorf("|ball| = %d, want %d", b2.Len(), group.BallSize(3, 2))
	}
}

func TestEqualUpTo(t *testing.T) {
	v := figure2V(t)
	u := Translate(v, mustWord(t, "3"))
	if EqualUpTo(v, u, 2) {
		t.Error("V and U equal up to radius 2, want different")
	}
	if !EqualUpTo(v, u, 1) {
		t.Error("V[1] ≠ U[1]")
	}
	if EqualUpTo(v, Full(4), 1) {
		t.Error("systems with different k compared equal")
	}
}

func TestCheckValidRejectsBadOracle(t *testing.T) {
	if err := CheckValid(badSystem{}, 3); err == nil {
		t.Error("CheckValid accepted a non-prefix-closed oracle")
	}
	if err := CheckValid(noRoot{}, 3); err == nil {
		t.Error("CheckValid accepted a system without e")
	}
}

// badSystem claims {e, 1·2} without 1: not prefix-closed.
type badSystem struct{}

func (badSystem) K() int { return 3 }

func (badSystem) Contains(w group.Word) bool {
	return w.IsIdentity() || w.Equal(group.Word{1, 2})
}

type noRoot struct{}

func (noRoot) K() int { return 3 }

func (noRoot) Contains(w group.Word) bool { return w.Equal(group.Word{1}) }

// randomFinite builds a random finite colour system over k colours by
// including each child of an included node with probability p, down to the
// given depth.
func randomFinite(rng *rand.Rand, k, depth int, p float64) *Finite {
	words := []group.Word{nil}
	frontier := []group.Word{nil}
	for d := 0; d < depth; d++ {
		var next []group.Word
		for _, w := range frontier {
			for c := group.Color(1); int(c) <= k; c++ {
				if c == w.Tail() {
					continue
				}
				if rng.Float64() < p {
					child := w.Append(c)
					words = append(words, child)
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	f, err := NewFinite(k, words)
	if err != nil {
		panic("randomFinite produced invalid system: " + err.Error())
	}
	return f
}

func BenchmarkWalkFull(b *testing.B) {
	f := Full(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Walk(f, 5, func(w group.Word) bool { n++; return true })
	}
}

func BenchmarkTranslatedContains(b *testing.B) {
	v := Translate(Full(5), group.Word{1, 2, 3, 4})
	w := group.Word{4, 3, 2, 1, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Contains(w)
	}
}

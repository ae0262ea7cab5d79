package group

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) Word {
	t.Helper()
	w, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return w
}

func TestIdentity(t *testing.T) {
	e := Identity()
	if !e.IsIdentity() {
		t.Error("Identity().IsIdentity() = false")
	}
	if e.Norm() != 0 {
		t.Errorf("Identity().Norm() = %d, want 0", e.Norm())
	}
	if e.Tail() != None {
		t.Errorf("Identity().Tail() = %v, want None", e.Tail())
	}
	if e.Head() != None {
		t.Errorf("Identity().Head() = %v, want None", e.Head())
	}
	if !e.Pred().IsIdentity() {
		t.Error("Identity().Pred() is not identity")
	}
	if got := e.String(); got != "e" {
		t.Errorf("Identity().String() = %q, want \"e\"", got)
	}
}

func TestTailHeadPred(t *testing.T) {
	tests := []struct {
		word string
		tail Color
		head Color
		pred string
	}{
		{"e", None, None, "e"},
		{"1", 1, 1, "e"},
		{"3·2·1", 1, 3, "3·2"},
		{"2·1", 1, 2, "2"},
		{"1·2·1·2", 2, 1, "1·2·1"},
	}
	for _, tt := range tests {
		t.Run(tt.word, func(t *testing.T) {
			w := mustParse(t, tt.word)
			if got := w.Tail(); got != tt.tail {
				t.Errorf("Tail() = %v, want %v", got, tt.tail)
			}
			if got := w.Head(); got != tt.head {
				t.Errorf("Head() = %v, want %v", got, tt.head)
			}
			if got := w.Pred(); got.String() != tt.pred {
				t.Errorf("Pred() = %v, want %v", got, tt.pred)
			}
		})
	}
}

func TestAppend(t *testing.T) {
	tests := []struct {
		word string
		c    Color
		want string
	}{
		{"e", 1, "1"},
		{"1", 1, "e"},
		{"1", 2, "1·2"},
		{"3·2·1", 1, "3·2"},
		{"3·2·1", 2, "3·2·1·2"},
	}
	for _, tt := range tests {
		t.Run(tt.word+"+"+tt.c.String(), func(t *testing.T) {
			w := mustParse(t, tt.word)
			if got := w.Append(tt.c); got.String() != tt.want {
				t.Errorf("Append(%v) = %v, want %v", tt.c, got, tt.want)
			}
		})
	}
}

func TestAppendDoesNotAliasReceiver(t *testing.T) {
	w := Word{1, 2}
	a := w.Append(3)
	b := w.Append(4)
	if !a.Equal(Word{1, 2, 3}) || !b.Equal(Word{1, 2, 4}) {
		t.Errorf("aliasing detected: a = %v, b = %v", a, b)
	}
	if !w.Equal(Word{1, 2}) {
		t.Errorf("receiver modified: %v", w)
	}
}

func TestMul(t *testing.T) {
	tests := []struct {
		x, y, want string
	}{
		{"e", "e", "e"},
		{"1", "e", "1"},
		{"e", "1", "1"},
		{"1", "1", "e"},
		{"1·2", "2·1", "e"},
		{"1·2", "2·3", "1·3"},
		{"3·2·1", "1·2·3", "e"},
		{"3·2·1", "1·2", "3"},
		{"1·2·3", "3·2·1", "e"},
		{"1·2", "1·2", "1·2·1·2"},
		{"2·1", "3", "2·1·3"},
	}
	for _, tt := range tests {
		t.Run(tt.x+"*"+tt.y, func(t *testing.T) {
			x := mustParse(t, tt.x)
			y := mustParse(t, tt.y)
			if got := Mul(x, y); got.String() != tt.want {
				t.Errorf("Mul(%v, %v) = %v, want %v", x, y, got, tt.want)
			}
		})
	}
}

func TestInverse(t *testing.T) {
	tests := []struct{ word, want string }{
		{"e", "e"},
		{"1", "1"},
		{"1·2", "2·1"},
		{"3·2·1", "1·2·3"},
	}
	for _, tt := range tests {
		w := mustParse(t, tt.word)
		if got := w.Inverse(); got.String() != tt.want {
			t.Errorf("Inverse(%v) = %v, want %v", w, got, tt.want)
		}
	}
}

func TestDistance(t *testing.T) {
	tests := []struct {
		x, y string
		want int
	}{
		{"e", "e", 0},
		{"e", "1·2·3", 3},
		{"1", "2", 2},
		{"1·2", "1·3", 2},
		{"1·2·3", "1·2", 1},
		{"1·2·3", "1·2·3", 0},
		{"2·1", "2·3·1", 3},
	}
	for _, tt := range tests {
		x := mustParse(t, tt.x)
		y := mustParse(t, tt.y)
		if got := distance(x, y); got != tt.want {
			t.Errorf("distance(%v, %v) = %d, want %d", x, y, got, tt.want)
		}
		// d(x, y) must agree with |x̄y| computed via Mul.
		if got := Mul(x.Inverse(), y).Norm(); got != tt.want {
			t.Errorf("|x̄y| for (%v, %v) = %d, want %d", x, y, got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"e", "1", "3·2·1", "1·2·1·2·1"} {
		w := mustParse(t, s)
		if got := w.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"1·1", "0", "x", "1·0·2", "256"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseDotSeparator(t *testing.T) {
	w, err := Parse("3.2.1")
	if err != nil {
		t.Fatalf("Parse(\"3.2.1\"): %v", err)
	}
	if w.String() != "3·2·1" {
		t.Errorf("Parse(\"3.2.1\") = %v", w)
	}
}

func TestKeyRoundTrip(t *testing.T) {
	for _, s := range []string{"e", "1", "3·2·1", "1·2·1·2·1"} {
		w := mustParse(t, s)
		if got := FromKey(w.Key()); !got.Equal(w) {
			t.Errorf("FromKey(Key(%v)) = %v", w, got)
		}
	}
}

func TestBall(t *testing.T) {
	tests := []struct {
		k, radius int
		wantLen   int
	}{
		{3, 0, 1},
		{3, 1, 4},
		{3, 2, 10}, // 1 + 3 + 3·2
		{4, 2, 17}, // 1 + 4 + 4·3
		{2, 3, 7},  // path: 1 + 2 + 2 + 2
		{3, 3, 22}, // 1 + 3 + 6 + 12
		{1, 5, 2},  // single edge
		{3, -1, 0},
	}
	for _, tt := range tests {
		got := Ball(tt.k, tt.radius)
		if len(got) != tt.wantLen {
			t.Errorf("len(Ball(%d, %d)) = %d, want %d", tt.k, tt.radius, len(got), tt.wantLen)
		}
		if tt.radius >= 0 && BallSize(tt.k, tt.radius) != tt.wantLen {
			t.Errorf("BallSize(%d, %d) = %d, want %d", tt.k, tt.radius, BallSize(tt.k, tt.radius), tt.wantLen)
		}
		for i, w := range got {
			if !w.IsReduced(tt.k) {
				t.Errorf("Ball(%d, %d)[%d] = %v not reduced", tt.k, tt.radius, i, w)
			}
			if w.Norm() > tt.radius {
				t.Errorf("Ball(%d, %d)[%d] = %v exceeds radius", tt.k, tt.radius, i, w)
			}
			if i > 0 && !Less(got[i-1], w) {
				t.Errorf("Ball(%d, %d) not in shortlex order at %d: %v !< %v", tt.k, tt.radius, i, got[i-1], w)
			}
		}
	}
}

func TestLess(t *testing.T) {
	tests := []struct {
		x, y string
		want bool
	}{
		{"e", "1", true},
		{"1", "e", false},
		{"1", "1", false},
		{"1", "2", true},
		{"2·1", "1·2·3", true},
		{"1·2", "1·3", true},
	}
	for _, tt := range tests {
		x := mustParse(t, tt.x)
		y := mustParse(t, tt.y)
		if got := Less(x, y); got != tt.want {
			t.Errorf("Less(%v, %v) = %v, want %v", x, y, got, tt.want)
		}
	}
}

// randomWord generates a random reduced word over k colours with norm ≤ max.
func randomWord(rng *rand.Rand, k, maxNorm int) Word {
	n := rng.Intn(maxNorm + 1)
	w := Identity()
	for i := 0; i < n; i++ {
		c := Color(rng.Intn(k) + 1)
		if c == w.Tail() {
			continue
		}
		w = w.Append(c)
	}
	return w
}

const quickK = 5

// quickWords is a testing/quick value generator producing random reduced
// words over quickK colours with norm at most maxNorm.
func quickWords(maxNorm int) func([]reflect.Value, *rand.Rand) {
	return func(values []reflect.Value, rng *rand.Rand) {
		for i := range values {
			values[i] = reflect.ValueOf(randomWord(rng, quickK, maxNorm))
		}
	}
}

func TestQuickInvolution(t *testing.T) {
	// x·x̄ = e and x̄̄ = x.
	f := func(x Word) bool {
		return Mul(x, x.Inverse()).IsIdentity() &&
			Mul(x.Inverse(), x).IsIdentity() &&
			x.Inverse().Inverse().Equal(x)
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickAssociativity(t *testing.T) {
	f := func(x, y, z Word) bool {
		return Mul(Mul(x, y), z).Equal(Mul(x, Mul(y, z)))
	}
	cfg := &quick.Config{Values: quickWords(10)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNormParity(t *testing.T) {
	// |xy| ≡ |x| + |y| (mod 2)  (§2.1).
	f := func(x, y Word) bool {
		return (Mul(x, y).Norm()-x.Norm()-y.Norm())%2 == 0
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNormAdditivity(t *testing.T) {
	// |xy| = |x| + |y| iff x = e, y = e, or tail(x) ≠ head(y)  (§2.1).
	f := func(x, y Word) bool {
		additive := Mul(x, y).Norm() == x.Norm()+y.Norm()
		cond := x.IsIdentity() || y.IsIdentity() || x.Tail() != y.Head()
		return additive == cond
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMetric(t *testing.T) {
	// d is a metric on G_k: identity, symmetry, triangle inequality.
	f := func(x, y, z Word) bool {
		dxy := distance(x, y)
		if (dxy == 0) != x.Equal(y) {
			return false
		}
		if dxy != distance(y, x) {
			return false
		}
		return distance(x, z) <= dxy+distance(y, z)
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMulPreservesReduced(t *testing.T) {
	f := func(x, y Word) bool {
		return Mul(x, y).IsReduced(quickK)
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickTranslate(t *testing.T) {
	// Translate(u, u·w) = w and |Translate(u, w)| = d(u, w).
	f := func(u, w Word) bool {
		if !Translate(u, Mul(u, w)).Equal(w) {
			return false
		}
		return Translate(u, w).Norm() == distance(u, w)
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickTailHeadRelation(t *testing.T) {
	// head(x) = tail(x̄) and pred(x) = x·tail(x) for x ≠ e.
	f := func(x Word) bool {
		if x.IsIdentity() {
			return true
		}
		if x.Head() != x.Inverse().Tail() {
			return false
		}
		return x.Pred().Equal(Mul(x, Word{x.Tail()}))
	}
	cfg := &quick.Config{Values: quickWords(12)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(x, y Word) bool {
		return (x.Key() == y.Key()) == x.Equal(y)
	}
	cfg := &quick.Config{Values: quickWords(8)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	words := make([]Word, 256)
	for i := range words {
		words[i] = randomWord(rng, 8, 32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(words[i%256], words[(i+7)%256])
	}
}

func BenchmarkBall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Ball(4, 5)
	}
}

// distance returns d(x, y) = |x̄y|, the length of the unique path between
// x and y in the tree Γ_k.
func distance(x, y Word) int {
	// |x̄y|: the common prefix of x and y cancels.
	i := 0
	for i < len(x) && i < len(y) && x[i] == y[i] {
		i++
	}
	return (len(x) - i) + (len(y) - i)
}

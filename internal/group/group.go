// Package group implements the free Coxeter group
//
//	G_k = ⟨1, 2, …, k | 1², 2², …, k²⟩,
//
// the free product of k cyclic groups of order two (Hirvonen & Suomela,
// PODC 2012, §2.1). Elements are represented by their unique reduced words:
// sequences of generators ("colours") in which no two consecutive letters
// are equal. The empty word is the identity e.
//
// The Cayley graph Γ_k of G_k with respect to the generators is a k-regular
// k-edge-coloured tree; the norm |x| of an element is its distance from e
// in Γ_k, and d(x, y) = |x̄y| is the tree metric. All the notation of the
// paper — tail, head, pred, translation — is provided here.
package group

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Color is a generator of G_k, equivalently an edge colour of the Cayley
// graph Γ_k. Valid colours are 1, 2, …, k; the zero value None denotes the
// absence of a colour.
type Color int

// None is the zero Color. It is not a generator; it is used as an "empty"
// sentinel, e.g. as the tail of the identity word.
const None Color = 0

// MaxColor is the largest supported generator. Words are keyed by packing
// one colour per byte, so colours must fit in a byte.
const MaxColor Color = 255

// Valid reports whether c is a generator of G_k, i.e. 1 ≤ c ≤ k.
func (c Color) Valid(k int) bool {
	return c >= 1 && int(c) <= k
}

// String returns the decimal representation of the colour, or "∅" for None.
func (c Color) String() string {
	if c == None {
		return "∅"
	}
	return strconv.Itoa(int(c))
}

// Word is an element of G_k in reduced form: a sequence of colours with no
// two consecutive letters equal. The zero value (nil) is the identity e.
//
// Words are treated as immutable values: all operations return fresh slices
// and never alias their inputs' backing arrays beyond read access.
type Word []Color

// Identity returns the identity element e (the empty word).
func Identity() Word { return nil }

// IsIdentity reports whether w = e.
func (w Word) IsIdentity() bool { return len(w) == 0 }

// Norm returns |w|, the length of the reduced word, which equals the
// distance from e to w in the Cayley graph Γ_k.
func (w Word) Norm() int { return len(w) }

// Tail returns tail(w): the unique colour c with |wc| = |w| − 1, i.e. the
// last letter of the reduced word. Tail of the identity is None.
func (w Word) Tail() Color {
	if len(w) == 0 {
		return None
	}
	return w[len(w)-1]
}

// Head returns head(w) = tail(w̄): the first letter of the reduced word.
// Head of the identity is None.
func (w Word) Head() Color {
	if len(w) == 0 {
		return None
	}
	return w[0]
}

// Pred returns pred(w) = w·tail(w), the reduced word with the last letter
// removed — the neighbour of w on the unique path towards e in Γ_k.
// Pred of the identity is the identity.
func (w Word) Pred() Word {
	if len(w) == 0 {
		return nil
	}
	return w[: len(w)-1 : len(w)-1].Clone()
}

// At returns the i-th letter (0-based) of the reduced word.
func (w Word) At(i int) Color { return w[i] }

// Clone returns a copy of w with its own backing array.
func (w Word) Clone() Word {
	if len(w) == 0 {
		return nil
	}
	c := make(Word, len(w))
	copy(c, w)
	return c
}

// Inverse returns w̄ = w⁻¹. Since every generator is an involution, the
// inverse of a reduced word is its reversal, which is again reduced.
func (w Word) Inverse() Word {
	if len(w) == 0 {
		return nil
	}
	inv := make(Word, len(w))
	for i, c := range w {
		inv[len(w)-1-i] = c
	}
	return inv
}

// Append returns the product w·c in reduced form: if c equals tail(w) the
// last letter cancels (c² = e), otherwise c is appended. The receiver is
// not modified.
func (w Word) Append(c Color) Word {
	if len(w) > 0 && w[len(w)-1] == c {
		return w.Pred()
	}
	out := make(Word, len(w)+1)
	copy(out, w)
	out[len(w)] = c
	return out
}

// Mul returns the product x·y in reduced form. Cancellation happens only at
// the boundary: the longest suffix of x that is the reversal of a prefix of
// y cancels, and the remainders concatenate.
func Mul(x, y Word) Word {
	i := len(x)
	j := 0
	for i > 0 && j < len(y) && x[i-1] == y[j] {
		i--
		j++
	}
	if i+len(y)-j == 0 {
		return nil
	}
	out := make(Word, 0, i+len(y)-j)
	out = append(out, x[:i]...)
	out = append(out, y[j:]...)
	return out
}

// Translate returns ū·w, the image of w under the isomorphism x ↦ ūx used
// throughout the paper (Lemma 3).
func Translate(u, w Word) Word {
	return Mul(u.Inverse(), w)
}

// Equal reports whether two reduced words denote the same group element.
func (w Word) Equal(v Word) bool {
	if len(w) != len(v) {
		return false
	}
	for i := range w {
		if w[i] != v[i] {
			return false
		}
	}
	return true
}

// IsReduced reports whether no two consecutive letters of w are equal and
// all letters lie in 1…k.
func (w Word) IsReduced(k int) bool {
	for i, c := range w {
		if !c.Valid(k) {
			return false
		}
		if i > 0 && w[i-1] == c {
			return false
		}
	}
	return true
}

// Key returns a compact string key for use in maps: one byte per letter.
// It requires every colour to be ≤ MaxColor, which Word operations preserve
// for any valid input.
func (w Word) Key() string {
	if len(w) == 0 {
		return ""
	}
	b := make([]byte, len(w))
	for i, c := range w {
		b[i] = byte(c)
	}
	return string(b)
}

// FromKey reconstructs the word encoded by Key.
func FromKey(key string) Word {
	if key == "" {
		return nil
	}
	w := make(Word, len(key))
	for i := 0; i < len(key); i++ {
		w[i] = Color(key[i])
	}
	return w
}

// String renders the word in the paper's notation: "e" for the identity,
// otherwise letters joined by "·", e.g. "3·2·1".
func (w Word) String() string {
	if len(w) == 0 {
		return "e"
	}
	var sb strings.Builder
	for i, c := range w {
		if i > 0 {
			sb.WriteByte(0xC2) // "·" is U+00B7, UTF-8 C2 B7
			sb.WriteByte(0xB7)
		}
		sb.WriteString(strconv.Itoa(int(c)))
	}
	return sb.String()
}

// errNotReduced is returned by Parse for syntactically valid but non-reduced
// words.
var errNotReduced = errors.New("group: word is not reduced")

// Parse parses the notation produced by String: "e" (or the empty string)
// for the identity, otherwise positive decimal letters joined by "·" or ".".
// The parsed word must be reduced.
func Parse(s string) (Word, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "e" {
		return nil, nil
	}
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == '·' || r == '.' })
	w := make(Word, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("group: parse %q: %w", s, err)
		}
		if n < 1 || Color(n) > MaxColor {
			return nil, fmt.Errorf("group: parse %q: colour %d out of range [1, %d]", s, n, MaxColor)
		}
		w = append(w, Color(n))
	}
	for i := 1; i < len(w); i++ {
		if w[i] == w[i-1] {
			return nil, fmt.Errorf("group: parse %q: %w", s, errNotReduced)
		}
	}
	return w, nil
}

// Less orders words by shortlex: first by norm, then lexicographically.
// It provides the deterministic enumeration order used by the adversary.
func Less(x, y Word) bool {
	if len(x) != len(y) {
		return len(x) < len(y)
	}
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// Ball returns all reduced words over colours 1…k of norm at most radius,
// in shortlex order. The ball of radius r in Γ_k has 1 + k·Σ_{i<r}(k−1)^i
// elements; callers should keep k and radius small enough for that to be
// tractable.
func Ball(k, radius int) []Word {
	if radius < 0 {
		return nil
	}
	words := []Word{nil}
	frontier := []Word{nil}
	for r := 1; r <= radius; r++ {
		var next []Word
		for _, w := range frontier {
			for c := Color(1); int(c) <= k; c++ {
				if c == w.Tail() {
					continue
				}
				next = append(next, w.Append(c))
			}
		}
		words = append(words, next...)
		frontier = next
	}
	return words
}

// BallSize returns the number of reduced words of norm ≤ radius over k
// colours: 1 + k·Σ_{i=0}^{radius−1}(k−1)^i.
func BallSize(k, radius int) int {
	if radius < 0 {
		return 0
	}
	size := 1
	layer := 1
	for r := 1; r <= radius; r++ {
		if r == 1 {
			layer = k
		} else {
			layer *= k - 1
		}
		size += layer
	}
	return size
}

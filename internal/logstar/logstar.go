// Package logstar provides the iterated-logarithm arithmetic behind the
// O(Δ + log* k) upper bound discussion of Hirvonen & Suomela (PODC 2012,
// §1.3): log*, power towers, integer roots and small primes for Linial's
// polynomial colour-reduction families.
package logstar

// LogStar returns log*₂(n): the number of times log₂ must be iterated,
// starting from n, before the result is at most 1. LogStar(n) = 0 for
// n ≤ 1. The integer iteration uses ⌈log₂ n⌉, which matches the real-valued
// definition: LogStar(2↑↑h) = h and LogStar(2↑↑h + 1) = h+1.
func LogStar(n int) int {
	count := 0
	for n > 1 {
		n = Log2Ceil(n)
		count++
	}
	return count
}

// log2Floor returns ⌊log₂ n⌋ for n ≥ 1.
func log2Floor(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	l := log2Floor(n)
	if 1<<l == n {
		return l
	}
	return l + 1
}

// IsPrime reports whether n is prime (trial division; intended for the
// small moduli of colour-reduction schedules).
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime ≥ n.
func NextPrime(n int) int {
	if n < 2 {
		return 2
	}
	for !IsPrime(n) {
		n++
	}
	return n
}

// RootCeil returns the smallest integer b ≥ 1 with b^r ≥ n, for n ≥ 1 and
// r ≥ 1 — the ⌈n^(1/r)⌉ used to size polynomial families.
func RootCeil(n, r int) int {
	if n <= 1 {
		return 1
	}
	lo, hi := 1, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if powAtLeast(mid, r, n) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// powAtLeast reports whether b^r ≥ n without overflowing (b, r, n ≥ 1).
func powAtLeast(b, r, n int) bool {
	acc := 1
	for i := 0; i < r; i++ {
		if acc > n/b {
			// acc·b certainly exceeds n; also guards against overflow.
			return true
		}
		acc *= b
	}
	return acc >= n
}

package logstar

import "testing"

func TestLogStar(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{16, 3}, {17, 4}, {65536, 4}, {65537, 5}, {1 << 62, 5},
	}
	for _, tt := range tests {
		if got := LogStar(tt.n); got != tt.want {
			t.Errorf("LogStar(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := Log2Ceil(tt.n); got != tt.want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestTower(t *testing.T) {
	tests := []struct{ h, want int }{
		{0, 1}, {1, 2}, {2, 4}, {3, 16}, {4, 65536},
	}
	for _, tt := range tests {
		if got := tower(tt.h); got != tt.want {
			t.Errorf("tower(%d) = %d, want %d", tt.h, got, tt.want)
		}
	}
	if tower(6) != int(^uint(0)>>1) {
		t.Error("tower(6) should saturate")
	}
	// log*(tower(h)) = h for the exactly representable towers.
	for h := 0; h <= 4; h++ {
		if got := LogStar(tower(h)); got != h {
			t.Errorf("LogStar(tower(%d)) = %d", h, got)
		}
	}
}

func TestPrimes(t *testing.T) {
	primes := []int{2, 3, 5, 7, 11, 13, 17, 19, 23}
	idx := 0
	for n := 0; n <= 23; n++ {
		want := n == primes[idx]
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v", n, got)
		}
		if want {
			idx++
			if idx >= len(primes) {
				break
			}
		}
	}
	tests := []struct{ n, want int }{
		{0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {100, 101},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.n); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestRootCeil(t *testing.T) {
	tests := []struct{ n, r, want int }{
		{1, 1, 1}, {2, 1, 2}, {9, 2, 3}, {10, 2, 4}, {16, 2, 4},
		{27, 3, 3}, {28, 3, 4}, {1000, 3, 10}, {1001, 3, 11},
		{1 << 40, 4, 1 << 10},
	}
	for _, tt := range tests {
		if got := RootCeil(tt.n, tt.r); got != tt.want {
			t.Errorf("RootCeil(%d, %d) = %d, want %d", tt.n, tt.r, got, tt.want)
		}
	}
	// Defining property: RootCeil(n, r)^r ≥ n > (RootCeil(n, r)−1)^r.
	for n := 1; n < 500; n++ {
		for r := 1; r <= 4; r++ {
			b := RootCeil(n, r)
			if !powAtLeast(b, r, n) {
				t.Errorf("RootCeil(%d, %d) = %d too small", n, r, b)
			}
			if b > 1 && powAtLeast(b-1, r, n) {
				t.Errorf("RootCeil(%d, %d) = %d not minimal", n, r, b)
			}
		}
	}
}

// tower returns the power tower 2↑↑h = 2^(2^(…)) of height h, saturating
// at the largest int to avoid overflow. tower(0) = 1.
func tower(h int) int {
	const maxExp = 62
	v := 1
	for i := 0; i < h; i++ {
		if v > maxExp {
			return int(^uint(0) >> 1)
		}
		v = 1 << v
	}
	return v
}

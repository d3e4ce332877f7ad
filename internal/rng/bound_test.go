package rng

import (
	"math"
	"testing"
)

// boundSizes is every n in 1..4096, the powers of two, and the values
// around 2^31, 2^32, 2^62 and 2^63-1, where the reciprocal's shift and the
// rejection threshold change shape.
func boundSizes() []uint64 {
	var ns []uint64
	for n := uint64(1); n <= 4096; n++ {
		ns = append(ns, n)
	}
	for k := uint(13); k < 63; k++ {
		ns = append(ns, 1<<k)
	}
	for _, c := range []uint64{1 << 31, 1 << 32, 1 << 62, math.MaxInt64} {
		for d := uint64(0); d <= 3; d++ {
			ns = append(ns, c-d)
			if c+d <= math.MaxInt64 {
				ns = append(ns, c+d)
			}
		}
	}
	return ns
}

// intnMax is Intn's rejection threshold for n, computed the slow way.
func intnMax(n uint64) uint64 {
	if n&(n-1) == 0 {
		return math.MaxInt64
	}
	return math.MaxInt64 - (1<<63)%n
}

// Below is Intn through a precomputed bound: the same threshold, the same
// remainder for every accepted draw (checked at 0, n-1, n, the threshold,
// one past it and random draws), and the same values and stream position
// from the same state.
func TestBoundMatchesIntn(t *testing.T) {
	probe := New(99)
	for _, n := range boundSizes() {
		b := NewBound(int(n))
		max := intnMax(n)
		if b.max != max {
			t.Fatalf("n=%d: bound threshold %d, want %d", n, b.max, max)
		}
		vs := []uint64{0, n - 1, n, max, max + 1}
		for i := 0; i < 64; i++ {
			vs = append(vs, uint64(probe.Int63()))
		}
		for _, v := range vs {
			if v > math.MaxInt64 || v > max {
				continue // never reaches the remainder
			}
			if got := b.rem(v); got != v%n {
				t.Fatalf("n=%d v=%d: reciprocal remainder %d, want %d", n, v, got, v%n)
			}
		}
		seed := int64(n)
		x, y := Seeded(seed), Seeded(seed)
		for i := 0; i < 8; i++ {
			if got, want := x.Below(&b), y.Intn(int(n)); got != want {
				t.Fatalf("n=%d draw %d: Below = %d, Intn = %d", n, i, got, want)
			}
		}
		if x.Uint64() != y.Uint64() {
			t.Fatalf("n=%d: Below and Intn consumed different draws", n)
		}
	}
}

// The fast accept in Intn changes no value: it agrees with the reference
// rejection scheme, which computes the threshold on every draw.
func TestIntnFastAcceptMatchesReference(t *testing.T) {
	ref := func(r *Rand, n int) int {
		if n&(n-1) == 0 {
			return int(r.Int63() & int64(n-1))
		}
		max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
		v := r.Int63()
		for v > max {
			v = r.Int63()
		}
		return int(v % int64(n))
	}
	for _, n := range boundSizes() {
		x, y := Seeded(int64(n)*7+1), Seeded(int64(n)*7+1)
		for i := 0; i < 16; i++ {
			if got, want := x.Intn(int(n)), ref(&y, int(n)); got != want {
				t.Fatalf("n=%d draw %d: Intn = %d, reference %d", n, i, got, want)
			}
		}
	}
}

func TestNewBoundRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBound(%d) did not panic", n)
				}
			}()
			NewBound(n)
		}()
	}
}

func BenchmarkBelow(b *testing.B) {
	r := New(1)
	bd := NewBound(28)
	x := 0
	for i := 0; i < b.N; i++ {
		x += r.Below(&bd)
	}
	_ = x
}

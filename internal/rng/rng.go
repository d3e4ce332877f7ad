// Package rng is the repo's Monte-Carlo random number generator: a tiny,
// allocation-free, inlineable deterministic generator for the simulation
// inner loops (bootstrap resampling, fault injection, Poisson traces, loss
// injection) where the interface dispatch inside math/rand dominates the
// per-draw cost.
//
// The core is the SplitMix64 sequence of Steele et al. (OOPSLA'14) — the
// same finalizer par.SplitSeed uses for counter-based seed splitting — so
// the whole randomness story of the repo reduces to one primitive: a root
// seed is split into per-shard seeds with par.SplitSeed, and each shard
// drives a rng.Rand seeded with its split. State is 8 bytes, every draw is
// a handful of arithmetic ops with no locks, no interfaces and no heap
// traffic, and the stream depends only on the seed — never on scheduling,
// worker counts, or the machine.
//
// Rand intentionally mirrors the subset of math/rand.Rand the hot paths
// use (Float64, Intn, ExpFloat64, NormFloat64, Perm, Shuffle), with the
// same parameter conventions, so call sites swap by changing the
// constructor. The streams differ from math/rand — swapping regenerates
// any stream-derived golden exactly once.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic SplitMix64-based generator. The zero value is a
// valid generator seeded with 0; use New/Seeded or Seed to pick a stream.
// It is not safe for concurrent use — give each goroutine (shard) its own
// Rand seeded via par.SplitSeed, which is the point.
type Rand struct {
	state uint64
	// spare caches the second normal of a polar Box-Muller pair so
	// NormFloat64 costs one log+sqrt per two draws.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded with seed.
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seeded returns a generator by value — embed it in a struct or keep it on
// the stack for zero-allocation shard bodies.
func Seeded(seed int64) Rand {
	var r Rand
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed, discarding
// any cached normal.
func (r *Rand) Seed(seed int64) {
	r.state = uint64(seed)
	r.hasSpare = false
}

// Uint64 returns the next 64 uniformly distributed bits: one SplitMix64
// step (add the golden-gamma, then finalize). SplitMix64 passes BigCrush;
// each call is two xor-shift-multiplies and an add.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Power-of-two
// bounds are a mask; general bounds use the math/rand rejection scheme, so
// the result is exactly uniform.
//
// The rejection threshold 2^63-1-(2^63 mod n) is never below 2^63-n, so a
// draw at or under 2^63-n is accepted without computing it: the division
// behind the threshold runs only for the rare draw above that line.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Int63() & int64(n-1))
	}
	v := r.Int63()
	if uint64(v) > 1<<63-uint64(n) {
		max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
		for v > max {
			v = r.Int63()
		}
	}
	return int(v % int64(n))
}

// Bound is a precomputed range [0, n) for Below: Intn's rejection
// threshold, computed once, and a multiply-high reciprocal of n that
// replaces the division behind the remainder. Build one per fixed range
// and share it; it is read-only.
type Bound struct {
	n uint64
	// max is the largest accepted Int63 draw (Intn's threshold; 2^63-1,
	// accepting every draw, for powers of two).
	max uint64
	// mul is ceil(2^(63+l)/n) for l = ceil(log2 n), the Granlund–Montgomery
	// reciprocal: for every v < 2^63, v/n == hi64(v*mul) >> (l-1). For a
	// power of two it is 2^63, so the quotient is v>>l and the remainder
	// Intn's mask.
	mul   uint64
	shift uint
	// mask clears the remainder for n == 1, the one range the reciprocal
	// cannot express; it is all ones otherwise.
	mask uint64
}

// NewBound precomputes the range [0, n). It panics if n <= 0.
func NewBound(n int) Bound {
	if n <= 0 {
		panic("rng: NewBound with non-positive n")
	}
	b := Bound{n: uint64(n), max: 1<<63 - 1}
	if n == 1 {
		return b
	}
	b.max -= (1 << 63) % b.n
	l := uint(bits.Len64(b.n - 1))
	// 2^(63+l) as a 128-bit dividend: its high word 2^(l-1) is below n.
	q, rem := bits.Div64(1<<(l-1), 0, b.n)
	if rem != 0 {
		q++
	}
	b.mul, b.shift, b.mask = q, l-1, ^uint64(0)
	return b
}

// Below returns a uniform int in the bound's range [0, n): exactly what
// Intn(n) returns from the same state, consuming the same draws, with no
// hardware division.
func (r *Rand) Below(b *Bound) int {
	v := uint64(r.Int63())
	for v > b.max {
		v = uint64(r.Int63())
	}
	return int(b.rem(v))
}

// rem returns v mod n for v < 2^63 through the reciprocal.
func (b *Bound) rem(v uint64) uint64 {
	hi, _ := bits.Mul64(v, b.mul)
	return (v - (hi>>b.shift)*b.n) & b.mask
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inversion: -ln(1-U) for U in [0, 1).
func (r *Rand) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal float64 via the polar Box-Muller
// method, caching the pair's second value. Unlike math/rand's ziggurat it
// needs no tables, keeping the generator 16 bytes and trivially portable.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Perm returns a uniform random permutation of [0, n), like math/rand.Perm.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes n elements with Fisher-Yates, calling swap(i, j) for
// each exchange. It panics if n < 0.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle with negative n")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

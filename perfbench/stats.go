package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the two middle values for an even
// count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile of xs, lowered to
// the highest percentile that still has at least minTail samples beyond it,
// and the percentile actually used. A distribution too small to have any
// such percentile at or above the median reports its median.
func tailPercentile(xs []float64, p float64) (v, used float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), p
	}
	used = min(p, 100*float64(n-minTail)/float64(n))
	if used < 50 {
		return median(xs), 50
	}
	s := sorted(xs)
	rank := int(math.Ceil(used / 100 * float64(n)))
	rank = max(rank, 1)
	return s[rank-1], used
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

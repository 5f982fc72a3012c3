package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// at least minBeyond samples lie beyond it. xs must be sorted ascending.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return xs[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not apply the tail rule: set-up
// times are repeated a handful of times and their median is the figure.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedMillis converts durations to sorted float milliseconds.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// relClose reports whether a and b agree within a relative tolerance,
// with an absolute floor of tol for values near zero.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sortedFloats returns xs sorted ascending.
func sortedFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

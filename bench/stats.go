package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method, extrapolating for two samples), so a spread computed here
// matches one computed from the printed values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that sample. Below 20 samples the only such percentile
// would be the median itself or lower, so nothing is reported.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < 20 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return 100 * float64(n-10) / float64(n), s[n-11], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"math"
	"slices"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank method: the smallest value with at least p% of the
// values at or below it. It returns 0 for no values.
func nearestRank(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// quartiles returns the first quartile, median and third quartile of
// vals with the same "exclusive" interpolation as Python's
// statistics.quantiles(vals, n=4), so spreads computed here match the
// ones computed from recorded result sets with Python. One value is its
// own quartiles; no values give zeros.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). It panics on an empty slice: every caller measures at
// least one sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the steadiness check applies, so a spread printed here matches the
// one computed from the printed values. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3, err := quartiles(xs)
	if err != nil || q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is set by a handful of requests and is not
// reported.
const minBeyond = 10

// percentile returns the p-th percentile of xs by the nearest-rank rule,
// or an error when fewer than minBeyond samples lie strictly above that
// rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// geomean returns the geometric mean of strictly positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geometric mean needs positive finite values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending sample set; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

// minSamplesFor is the smallest sample count at which the given
// percentile (in per-mille: 950 = p95) has minTail samples beyond it. A
// percentile is reported only from sets at least this large.
func minSamplesFor(perMille int) int {
	beyond := 1000 - perMille
	return (minTail*1000 + beyond - 1) / beyond
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method), so
// spreads computed here match the ones the PR driver computes. One value
// is its own quartiles; none gives zeros.
func quartiles(v []float64) (q1, med, q3 float64) {
	asc := sorted(v)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle of v.
func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

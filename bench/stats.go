package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of an ascending
// slice by nearest rank; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 50)
}

// tailPermille are the candidates for a latency's reported tail,
// highest first, in tenths of a percent so the sample arithmetic is
// exact.
var tailPermille = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest candidate percentile, capped at
// limit, that still has at least ten of the n samples beyond it; a
// tail read from fewer is one outlier's value. 50 when none has.
func supportedTail(n int, limit float64) float64 {
	for _, pm := range tailPermille {
		if p := float64(pm) / 10; p <= limit && n*(1000-pm) >= 10*1000 {
			return p
		}
	}
	return 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

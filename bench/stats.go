package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 1) of xs:
// the smallest sample such that at least q of the samples are <= it. It
// sorts xs in place. An empty sample yields NaN, which the JSON encoder
// refuses, so a workload that measured nothing cannot report a number.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond is how many of n samples lie strictly above the nearest-rank q-th
// percentile; a tail percentile is only worth reporting with enough of them.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailMean is the mean of the samples above the nearest-rank from-th
// percentile up to and including the to-th. It sorts xs in place.
func tailMean(xs []float64, from, to float64) float64 {
	sort.Float64s(xs)
	return mean(xs[len(xs)-beyond(len(xs), from) : len(xs)-beyond(len(xs), to)])
}

// median is the middle sample, or the mean of the two middle samples; unlike
// percentile it leaves xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

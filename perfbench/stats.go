package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile for the sample to support it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs,
// which need not be sorted. It returns NaN for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// supports reports whether a sample of n values has at least minBeyond
// of them above its nearest-rank q-quantile.
func supports(n int, q float64) bool {
	rank := int(math.Ceil(q*float64(n))) - 1
	return n > 0 && n-1-rank >= minBeyond
}

// tailPercentile returns the highest of the standard percentiles that
// the sample supports, as a fraction, and 0 when it supports none.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if supports(n, q) {
			best = q
		}
	}
	return best
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

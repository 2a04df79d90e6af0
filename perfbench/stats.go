package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile of samples by nearest rank: the
// sample at 1-based rank ceil(n·p), clamped to [1, n]. It never
// interpolates, and the value it returns is at least as large as ceil(n·p)
// of the n samples. samples is sorted in place.
//
// The (1 - 1e-12) factor absorbs rounding in n·p: 10×0.91 evaluates to
// 9.0999…96 and must give rank 10, while 100×0.91 evaluates to 91.0000…1
// and must give rank 91, not 92.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[nearestRank(len(samples), p)-1]
}

// nearestRank is the 1-based rank percentile reads for n samples.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(float64(n) * p * (1 - 1e-12)))
	return min(max(rank, 1), n)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

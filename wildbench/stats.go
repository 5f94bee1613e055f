package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a q share of the samples at or below
// it. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailMin is how many samples a tail percentile leaves above it, so
// that one or two outliers cannot set it.
const tailMin = 10

// tailQ is the percentile the tail metrics report for n samples: the
// highest that leaves tailMin samples above it, but at most the 99.9th
// and never below the median. The serve round trips reach the cap; at
// their 99th percentile the slowest misses and listings give way to the
// scheduling tail, and a knee like that moves with the host's load.
func tailQ(n int) float64 { return max(0.5, min(0.999, 1-float64(tailMin)/float64(n))) }

// tail is the tailQ quantile of xs.
func tail(xs []float64) float64 { return quantile(xs, tailQ(len(xs))) }

// ratio divides, returning 0 for an empty base so a layer that saw no
// work reads as zero instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

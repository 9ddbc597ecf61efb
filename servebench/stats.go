package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of the ascending samples as an
// order statistic (nearest rank: the smallest sample with at least a
// share q of the samples at or below it). It returns 0 for no samples.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// sortedCopy merges sample slices into one ascending slice.
func sortedCopy(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sortInt64(out)
	return out
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// median returns the median of xs (the mean of the middle two for an
// even count; 0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two nearest ranks (the "type 7" estimator
// numpy and R use by default). xs need not be sorted; it is not
// modified. An empty sample yields NaN, and an infinite value in the
// sample propagates when the quantile reaches it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || s[lo] == s[hi] {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailSamples is how many samples of n lie strictly beyond the
// q-quantile's rank: the count that makes a reported percentile
// trustworthy (at least ten beyond it).
func tailSamples(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// ratio is num/den, or 0 when den is 0: per-operation figures of a
// layer the workload never reaches read as zero, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to fractional milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

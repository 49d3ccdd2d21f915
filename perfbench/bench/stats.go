package bench

import (
	"math"
	"sort"
)

// TailSamples is how many samples must lie beyond a percentile before
// it is reported: a p99 needs 1000 samples, a p90 100, a median 20.
const TailSamples = 10

// MinSamples is the smallest sample count that supports percentile q
// (0 < q < 1) with TailSamples samples beyond it.
func MinSamples(q float64) int {
	return int(math.Ceil(TailSamples/(1-q) - 1e-9))
}

// Percentile returns the q-quantile of xs by linear interpolation
// between closest ranks. ok is false when xs has fewer than
// MinSamples(q) samples, in which case the value is 0 and must not be
// reported as a measurement. xs is not modified.
func Percentile(xs []float64, q float64) (v float64, ok bool) {
	if q <= 0 || q >= 1 || len(xs) < MinSamples(q) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q), true
}

func quantileSorted(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// Median is the middle value of xs (mean of the two middle values for
// even counts), 0 for no samples. Medians of a handful of iterations
// are how a run summarises itself, so unlike Percentile it has no
// minimum sample count.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// Max is the largest value of xs, 0 for no samples.
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Sum adds xs.
func Sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

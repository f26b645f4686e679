package dsp

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MinMax returns the minimum and maximum of xs. It panics on empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("dsp: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// ArgMin returns the index of the smallest element, or -1 for empty input.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element, or -1 for empty input.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("dsp: Percentile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// BoxStats summarizes a sample for box plots: the five-number summary plus
// the interquartile range, matching the paper's Figure 18/19 presentation.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	IQR                      float64
	N                        int
}

// Box computes BoxStats for xs. It panics on empty input.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		panic("dsp: Box of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	b := BoxStats{
		Min:    s[0],
		Q1:     percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		Q3:     percentileSorted(s, 75),
		Max:    s[len(s)-1],
		N:      len(s),
	}
	b.IQR = b.Q3 - b.Q1
	return b
}

// CDFPoint is a single point of an empirical CDF.
type CDFPoint struct {
	Value float64
	P     float64
}

// CDF returns the empirical cumulative distribution of xs as sorted points
// (value, fraction <= value). Returns nil for empty input.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	n := float64(len(s))
	for i, v := range s {
		out[i] = CDFPoint{Value: v, P: float64(i+1) / n}
	}
	return out
}

package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// quantile returns the q-quantile (0 <= q <= 1) of ascending values by
// linear interpolation between closest ranks; NaN for an empty sample.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median returns the median of v (any order).
func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// quantileOrZero and medianOrZero are for hops a workload does not have:
// an empty sample reads 0, not NaN.
func quantileOrZero(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return quantile(asc, q)
}

func medianOrZero(v []float64) float64 { return quantileOrZero(sorted(v), 0.5) }

// mean returns the arithmetic mean of v; NaN for an empty sample.
func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// spread is the distance between the first and third quartile as a share of
// the median: the noise figure every reported median carries.
func spread(v []float64) float64 {
	asc := sorted(v)
	med := quantile(asc, 0.5)
	if len(asc) < 2 || med == 0 {
		return 0
	}
	return (quantile(asc, 0.75) - quantile(asc, 0.25)) / math.Abs(med)
}

// tailPercentiles are the candidates topPercentile chooses from.
var tailPercentiles = []float64{99.999, 99.99, 99.9, 99.5, 99, 95, 90, 75, 50}

// topPercentile returns the highest percentile of tailPercentiles that has
// at least ten samples beyond it, and its value. A sample of fewer than
// twenty supports nothing above the median, which is what it returns (p = 50);
// an empty sample returns (0, NaN).
func topPercentile(asc []float64) (p, value float64) {
	n := len(asc)
	if n == 0 {
		return 0, math.NaN()
	}
	for _, p := range tailPercentiles {
		// (100-p)% of the samples lie beyond percentile p; the epsilon keeps
		// 0.1% of 10000 from rounding down to 9.
		beyond := int(math.Floor(float64(n)*(100-p)/100 + 1e-6))
		if beyond >= 10 {
			return p, asc[n-beyond-1]
		}
	}
	return 50, quantile(asc, 0.5)
}

// floats converts nanosecond samples for the helpers above.
func floats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

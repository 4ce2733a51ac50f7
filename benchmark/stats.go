package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule of R and numpy). xs need not be
// sorted and is not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevels is the ladder the reported tail percentile is taken from.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// tailLevel is the quantile level reported as a run's tail: the highest
// level of the ladder with at least ten of n samples beyond it. Below 20
// samples no level qualifies and the tail is the median. The ladder's
// steps are far apart, so a run's tail stays at one level unless its
// operation count changes several-fold.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10-1e-9 { // 1-0.9 rounds below 0.1
			return q
		}
	}
	return 0.5
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean returns the geometric mean, 0 for an empty slice or one holding
// a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

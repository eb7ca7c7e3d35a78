package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// summarize reduces samples to their median and quartiles.
func summarize(xs []float64, unit string, timing bool) summary {
	return summary{
		Median: quantile(xs, 0.5),
		Q1:     quantile(xs, 0.25),
		Q3:     quantile(xs, 0.75),
		N:      len(xs),
		Unit:   unit,
		Timing: timing,
	}
}

// Package stat holds the order statistics smtbench reports and
// bench/compare judges with. Quartiles follow Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), so a spread
// computed here matches one computed from the same values in Python.
package stat

import (
	"math"
	"sort"
)

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Quantile returns the p-quantile (0 < p < 1) of xs by the exclusive
// method: the (n+1)p-th order statistic, linearly interpolated and clamped
// to the sample range. It returns NaN for an empty sample.
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	if n == 1 {
		return s[0]
	}
	h := float64(n+1) * p
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// Median returns the sample median (NaN when empty).
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	return Quantile(xs, 0.25), Median(xs), Quantile(xs, 0.75)
}

// Spread is the interquartile range as a share of the median's
// magnitude; 0 when the median is 0 and the quartiles agree.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// tailPerMille are the percentiles Tail tries, highest first, in tenths
// of a percent.
var tailPerMille = []int{999, 990, 900, 750, 500}

// Tail returns the highest of the 99.9th, 99th, 90th, 75th and 50th
// percentiles that has at least ten samples strictly beyond its rank,
// with its value, so a reported tail is never set by a handful of
// outliers. With fewer than twenty samples none qualifies; Tail then
// reports the maximum as percentile 100.
func Tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n == 0 {
		return 0, math.NaN()
	}
	s := Sorted(xs)
	for _, pm := range tailPerMille {
		rank := (pm*n + 999) / 1000 // nearest rank: ceil(pm/1000 * n)
		if n-rank >= 10 {
			return float64(pm) / 10, s[rank-1]
		}
	}
	return 100, s[n-1]
}

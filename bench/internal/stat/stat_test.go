package stat

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// The expected quartiles are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(11), 3, 6, 9},
		{[]float64{7, 1, 3, 5}, 1.5, 4, 6.5},
		{[]float64{10.2, 9.8, 10.0, 10.4, 9.6, 10.1, 9.9, 10.3, 9.7, 10.0}, 9.775, 10, 10.225},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(m-tc.m) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	if got := Spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-9 {
		t.Errorf("Spread(1..10) = %v, want 1", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of no samples is not NaN")
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		pct, value float64
	}{
		{5, 100, 5},     // too few for any percentile: the maximum
		{19, 100, 19},   // p50 would have 9 beyond
		{20, 50, 10},    // p50 has exactly 10 beyond
		{99, 75, 75},    // p90 would have 9 beyond
		{100, 90, 90},   // p90 has 10 beyond, p99 only 1
		{1000, 99, 990}, // p99 has 10 beyond
		{10000, 99.9, 9990},
	} {
		pct, v := Tail(seq(tc.n))
		if pct != tc.pct || v != tc.value {
			t.Errorf("Tail(1..%d) = p%v %v, want p%v %v", tc.n, pct, v, tc.pct, tc.value)
		}
	}
}

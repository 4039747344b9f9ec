// Package stats provides the counters and averages the simulator uses to
// report results.
//
// The types here are deliberately plain: a simulation is single-goroutine,
// so no synchronization is needed, and the hot-path cost of bumping a
// counter must stay at a single add. Anything fancier (rates, ratios,
// normalized figures) is computed at reporting time from the raw counts.
package stats

// Counter is a monotonically increasing event count.
type Counter uint64

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// RunningMean accumulates a streaming arithmetic mean without storing
// samples. Used for per-cycle occupancy averages (e.g. Figure 5's
// "allocated physical registers per cycle"), which are reported over a
// measurement window from two snapshots' Sum and Count.
type RunningMean struct {
	n   uint64
	sum float64
}

// Observe adds one sample.
func (m *RunningMean) Observe(v float64) {
	m.n++
	m.sum += v
}

// Count returns the number of samples observed.
func (m *RunningMean) Count() uint64 { return m.n }

// Sum returns the sum of all samples (windowed-delta computations need it:
// meanOverWindow = (Sum2-Sum1)/(Count2-Count1)).
func (m *RunningMean) Sum() float64 { return m.sum }

// Mean returns the arithmetic mean of the samples (0 for none).
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

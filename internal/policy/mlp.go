package policy

import (
	"repro/internal/pipeline"
)

// MLPAware is the memory-level-parallelism-aware fetch policy of Eyerman &
// Eeckhout (HPCA 2007), the related work the paper contrasts RaT against
// (§2): on a long-latency miss, a per-load MLP predictor decides how many
// *more* instructions the thread may fetch — just enough to expose the
// miss cluster the predictor has seen follow this load before — and then
// the thread stalls until the miss resolves.
//
// The predictor's reach is bounded by hardware (the long-latency shift
// register); the paper's criticism is exactly that bound: distant MLP
// beyond maxSpan can never be exposed, whereas a runahead thread keeps
// going for the whole memory latency. This implementation preserves that
// limitation deliberately.
type MLPAware struct {
	pipeline.ICount

	table map[uint64]uint64 // load PC -> predicted miss-cluster span

	// Per-thread gating state.
	active  [8]bool
	gateSeq [8]uint64 // fetch allowed while cursor <= gateSeq
	trigPC  [8]uint64
	trigSeq [8]uint64
}

// minSpan and maxSpan bound the predicted fetch-ahead distance in
// instructions; maxSpan models the shift-register length.
const (
	minSpan = 32
	maxSpan = 256
)

// NewMLPAware returns the policy with an empty MLP predictor.
func NewMLPAware() *MLPAware {
	return &MLPAware{table: map[uint64]uint64{}}
}

// predict returns the fetch-ahead span for a trigger load.
func (m *MLPAware) predict(pc uint64) uint64 {
	span, ok := m.table[pc]
	if !ok || span < minSpan {
		span = minSpan
	}
	if span > maxSpan {
		span = maxSpan
	}
	return span
}

// FetchPriority implements pipeline.Policy: ICOUNT order, with threads
// past their MLP window gated while their miss is outstanding.
func (m *MLPAware) FetchPriority(c *pipeline.Core, buf []int) []int {
	ordered := c.ThreadsByICount(buf)
	kept := ordered[:0]
	for _, tid := range ordered {
		if m.active[tid&7] {
			if !c.PendingL2Miss(tid) {
				m.active[tid&7] = false // miss resolved; window closed
			} else if c.FetchCursor(tid) > m.gateSeq[tid&7] {
				continue // MLP window exhausted: stall until resolution
			}
		}
		kept = append(kept, tid)
	}
	return kept
}

// OnL2Miss implements pipeline.Policy: open (or train) the MLP window.
func (m *MLPAware) OnL2Miss(c *pipeline.Core, ld *pipeline.DynInst) {
	tid := ld.Thread() & 7
	if !m.active[tid] {
		// New trigger: open a window of the predicted span.
		m.active[tid] = true
		m.trigPC[tid] = ld.PC()
		m.trigSeq[tid] = ld.Seq()
		m.gateSeq[tid] = ld.Seq() + m.predict(ld.PC())
		return
	}
	// A further miss inside the window: the cluster extends at least this
	// far — train the trigger's span (saturating at the hardware bound).
	if ld.Seq() > m.trigSeq[tid] {
		span := ld.Seq() - m.trigSeq[tid] + minSpan
		if span > maxSpan {
			span = maxSpan
		}
		if span > m.table[m.trigPC[tid]] {
			m.table[m.trigPC[tid]] = span
		}
		if g := m.trigSeq[tid] + span; g > m.gateSeq[tid] {
			m.gateSeq[tid] = g
		}
	}
}

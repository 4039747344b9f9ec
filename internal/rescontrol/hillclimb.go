package rescontrol

import (
	"repro/internal/pipeline"
)

// HillClimbing is the Choi & Yeung learning-based resource distributor in
// its throughput-guided form ("Hill-Thru" — the variant the paper
// evaluates, since the others need offline single-thread IPCs). The
// machine's partitionable resources (ROB share, physical registers, issue
// queue entries) are divided by a per-thread share vector. Learning is
// epoch-based gradient ascent: each round tries boosting each thread's
// share by shareDelta for one epoch, measures throughput, then moves the
// base partition toward the best trial. It fetches in ICOUNT order.
type HillClimbing struct {
	pipeline.ICount

	epochCycles uint64 // trial epoch length

	shares   []float64 // base partition, sums to 1
	trial    int       // thread whose share is boosted this epoch
	inEpoch  uint64    // cycles elapsed in the current epoch
	baseline uint64    // committed count at epoch start
	scores   []float64 // per-trial throughput of the current round
	started  bool
}

// shareDelta is the share boost applied to the trial thread.
const shareDelta = 0.10

// NewHillClimbing returns the policy with the paper-scale epoch.
func NewHillClimbing() *HillClimbing {
	return &HillClimbing{epochCycles: 16384}
}

// init sizes the share vector on first use.
func (h *HillClimbing) init(c *pipeline.Core) {
	if h.started {
		return
	}
	n := c.NumThreads()
	h.shares = make([]float64, n)
	for i := range h.shares {
		h.shares[i] = 1 / float64(n)
	}
	h.scores = make([]float64, n)
	h.baseline = c.CommittedTotal()
	h.started = true
}

// effectiveShare returns tid's share under the current trial.
func (h *HillClimbing) effectiveShare(c *pipeline.Core, tid int) float64 {
	h.init(c)
	n := len(h.shares)
	s := h.shares[tid]
	if n > 1 {
		if tid == h.trial {
			s += shareDelta
		} else {
			s -= shareDelta / float64(n-1)
		}
	}
	if s < 0.05 {
		s = 0.05
	}
	return s
}

// CanDispatch implements pipeline.Policy: enforce the partition on the
// ROB, the register files, and the issue queues.
func (h *HillClimbing) CanDispatch(c *pipeline.Core, tid int) bool {
	s := h.effectiveShare(c, tid)
	cfg := c.Config()
	if c.ROBOccupancy(tid) >= lim(s, cfg.ROBSize) {
		return false
	}
	if c.IntRegsHeld(tid) >= lim(s, cfg.IntRegs) {
		return false
	}
	if c.FPRegsHeld(tid) >= lim(s, cfg.FPRegs) {
		return false
	}
	if c.IQHeld(tid, pipeline.IQInt) >= lim(s, cfg.IntIQ) {
		return false
	}
	if c.IQHeld(tid, pipeline.IQFP) >= lim(s, cfg.FPIQ) {
		return false
	}
	if c.IQHeld(tid, pipeline.IQLS) >= lim(s, cfg.LSIQ) {
		return false
	}
	return true
}

// lim converts a fractional share into an entry allowance, floored at 8
// so a trial never starves a thread outright.
func lim(share float64, capacity int) int {
	l := int(share * float64(capacity))
	if l < 8 {
		l = 8
	}
	return l
}

// Tick implements pipeline.Policy: epoch accounting and the gradient move.
func (h *HillClimbing) Tick(c *pipeline.Core) {
	h.init(c)
	h.inEpoch++
	if h.inEpoch < h.epochCycles {
		return
	}
	// Epoch boundary: score the trial by committed throughput.
	committed := c.CommittedTotal()
	h.scores[h.trial] = float64(committed - h.baseline)
	h.baseline = committed
	h.inEpoch = 0
	h.trial++
	if h.trial < len(h.shares) {
		return
	}
	// Round complete: move the base partition toward the best trial.
	h.trial = 0
	best := 0
	for i, s := range h.scores {
		if s > h.scores[best] {
			best = i
		}
	}
	n := float64(len(h.shares))
	for i := range h.shares {
		if i == best {
			h.shares[i] += shareDelta / 2
		} else {
			h.shares[i] -= shareDelta / 2 / (n - 1)
		}
		if h.shares[i] < 0.05 {
			h.shares[i] = 0.05
		}
	}
	// Renormalize.
	var sum float64
	for _, s := range h.shares {
		sum += s
	}
	for i := range h.shares {
		h.shares[i] /= sum
	}
}

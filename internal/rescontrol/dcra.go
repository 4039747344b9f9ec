// Package rescontrol implements the paper's dynamic resource control
// comparators: DCRA (Cazorla et al., "Dynamically controlled resource
// allocation in SMT processors", MICRO 2004) and Hill Climbing (Choi &
// Yeung, "Learning-based SMT processor resource distribution via
// hill-climbing", ISCA 2006). Both plug into the pipeline as Policies
// that embed pipeline.ICount: they fetch in ICOUNT order and ignore L2
// misses as it does, and their CanDispatch hook enforces per-thread
// resource caps. Hill Climbing also re-divides the caps each epoch from
// its Tick hook.
package rescontrol

import (
	"repro/internal/pipeline"
)

// DCRA monitors per-thread resource usage and grants memory-intensive
// ("slow") threads a larger share of the critical shared resources,
// gating any thread that exceeds its share. Classification follows the
// DCRA paper's spirit: a thread with an outstanding cache miss is slow;
// shares weight slow threads by slowWeight. DCRA keeps ICOUNT fetch
// priority; its control is in the allocation caps.
type DCRA struct{ pipeline.ICount }

// slowWeight is the share multiplier for slow threads (the DCRA paper's C
// parameter; 4 reproduces its "slow threads need roughly 4x the
// registers" observation).
const slowWeight = 4

// weights returns each thread's share weight and the total.
func (DCRA) weights(c *pipeline.Core) (w [8]int, total int) {
	for tid := 0; tid < c.NumThreads(); tid++ {
		w[tid] = 1
		if c.PendingL2Miss(tid) || c.InRunahead(tid) {
			w[tid] = slowWeight
		}
		total += w[tid]
	}
	return w, total
}

// share returns a thread's allowance of a capacity-limited resource given
// its weight, floored so no thread starves below a minimal allocation.
func share(capacity, weight, total int) int {
	s := capacity * weight / total
	if s < 4 {
		s = 4
	}
	return s
}

// CanDispatch implements pipeline.Policy: a thread may dispatch while its
// usage of every capped resource (physical registers and issue queue
// entries) stays within its weighted share.
func (d DCRA) CanDispatch(c *pipeline.Core, tid int) bool {
	w, total := d.weights(c)
	cfg := c.Config()
	wt := w[tid]
	if c.IntRegsHeld(tid) >= share(cfg.IntRegs, wt, total) {
		return false
	}
	if c.FPRegsHeld(tid) >= share(cfg.FPRegs, wt, total) {
		return false
	}
	if c.IQHeld(tid, pipeline.IQInt) >= share(cfg.IntIQ, wt, total) {
		return false
	}
	if c.IQHeld(tid, pipeline.IQFP) >= share(cfg.FPIQ, wt, total) {
		return false
	}
	if c.IQHeld(tid, pipeline.IQLS) >= share(cfg.LSIQ, wt, total) {
		return false
	}
	return true
}

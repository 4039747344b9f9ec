package pipeline

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
)

// issueStage selects from each issue queue in turn (Int, LS, FP):
// instructions whose operands have all been produced issue oldest-first to
// a free functional unit, within the global issue width. In runahead mode,
// instructions with a poisoned fold-relevant operand are folded here
// (never executed), releasing their queue slot without consuming issue
// bandwidth — the "light thread" behaviour of §3.2. Readiness is not
// polled: producers broadcast it into each waiting consumer (markReady),
// which moves the consumer onto its queue's ready list once it can act,
// so the scan visits only those entries.
func (c *Core) issueStage(now uint64) {
	budget := c.cfg.Width
	for _, kind := range [...]IQKind{IQInt, IQLS, IQFP} {
		c.scanQueue(c.iqs[kind], now, &budget)
	}
}

// scanQueue walks one queue's ready list in age order, compacting out
// entries squashed since they joined, folding runahead entries whose
// invSrc is set, issuing the rest while width, a unit and an MSHR allow,
// and keeping those that could not go. A fold broadcasts at once; the
// consumers it wakes in this queue are younger, so wake inserts them
// after the current position and this same walk reaches them (the list's
// length is re-read every iteration).
func (c *Core) scanQueue(q *issueQueue, now uint64, budget *int) {
	kept := 0
	for i := 0; i < len(q.ready); i++ {
		di := q.ready[i]
		if di.squashed {
			continue // left the machine; compact
		}
		q.scanSeq = di.qseq
		t := c.threads[di.tid]

		// Runahead folding on poisoned operands.
		if di.invSrc && t.mode == ModeRunahead {
			c.foldInQueue(t, di)
			continue
		}
		if di.pending == 0 && *budget > 0 && c.issue(q, t, di, now) {
			*budget = *budget - 1
			continue
		}
		q.ready[kept] = di
		kept++
	}
	q.ready = q.ready[:kept]
	q.scanSeq = 0
}

// issue sends a ready entry to a free functional unit of its queue's
// class. It returns false, changing nothing, when every unit is busy or
// the memory hierarchy has no MSHR for it (a structural retry).
func (c *Core) issue(q *issueQueue, t *thread, di *DynInst, now uint64) bool {
	units := c.fuBusy[q.kind]
	unit := -1
	for u := range units {
		if units[u] <= now {
			unit = u
			break
		}
	}
	if unit < 0 || !c.execute(t, di, now) {
		return false
	}
	// Occupy the unit: pipelined ops for one cycle, FP divide for its
	// full latency (the unpipelined unit of Table 1's era).
	if di.tmpl.Op == isa.OpFpDiv {
		units[unit] = now + c.cfg.FPDivLat
	} else {
		units[unit] = now + 1
	}
	di.issued = true
	c.releaseRefs(di)
	q.count--
	t.iqHeld[q.kind]--
	t.icount--
	t.stats.Executed++
	return true
}

// markReady publishes that the producer of register p (in a's file) has
// produced: the register file records it, and every consumer still waiting
// on p counts one source down, noting a poisoned fold-relevant source. A
// consumer this makes selectable joins its queue's ready list. Waiters
// whose instruction has since been recycled fail the id check and are
// skipped; a squashed or folded one is counted down harmlessly, as nothing
// reads its wakeup state again, and never joins a list.
func (c *Core) markReady(a isa.Reg, p regfile.PhysReg, inv bool) {
	c.fileFor(a).MarkReady(p, inv)
	for _, w := range *c.waitersFor(a, p) {
		if !w.live() {
			continue
		}
		di := w.di
		// A waiter still has a source pending, so only invSrc can have
		// put it on the list already (a folded entry always has it).
		listed := di.invSrc
		di.pending--
		if inv && di.foldsOn(a, p) {
			di.invSrc = true
		}
		if !listed && (di.pending == 0 || di.invSrc) && !di.squashed {
			c.iqs[di.iq].wake(di)
		}
	}
}

// foldInQueue folds an instruction discovered invalid after dispatch: its
// destination is poisoned, its references release, and its queue slot
// frees — without occupying a functional unit.
func (c *Core) foldInQueue(t *thread, di *DynInst) {
	di.folded = true
	di.completed = true
	di.inv = true
	c.releaseRefs(di)
	if di.dst >= 0 {
		c.markReady(di.tmpl.Dst, di.dst, true)
	}
	c.iqs[di.iq].count--
	t.iqHeld[di.iq]--
	t.icount--
	t.stats.Folded++
	// A poisoned branch cannot be validated; runahead proceeds down the
	// predicted path without penalty (§3.1 "follow the most likely path").
	if di == t.blockingBranch {
		t.blockingBranch = nil
	}
}

// releaseRefs drops di's source references once it has read (issued or
// folded) — idempotent via the refsReleased flag.
func (c *Core) releaseRefs(di *DynInst) {
	if di.refsReleased {
		return
	}
	di.refsReleased = true
	if di.src1 >= 0 {
		c.fileFor(di.tmpl.Src1).DecRef(di.src1)
	}
	if di.src2 >= 0 {
		c.fileFor(di.tmpl.Src2).DecRef(di.src2)
	}
}

// execute starts di's execution at cycle now, scheduling its completion.
// It returns false if a structural hazard (MSHR exhaustion) forces a
// retry next cycle.
func (c *Core) execute(t *thread, di *DynInst, now uint64) bool {
	op := di.tmpl.Op
	var done uint64
	switch {
	case op.IsLoad():
		ok, d := c.executeLoad(t, di, now)
		if !ok {
			return false
		}
		done = d
	case op.IsStore():
		done = now + 1 // address generation; data memory is touched at commit
		if t.mode == ModeRunahead {
			c.executeRunaheadStore(t, di, now)
		}
	case op == isa.OpIntMul:
		done = now + c.cfg.IntMulLat
	case op == isa.OpFpAlu:
		done = now + c.cfg.FPAluLat
	case op == isa.OpFpMul:
		done = now + c.cfg.FPMulLat
	case op == isa.OpFpDiv:
		done = now + c.cfg.FPDivLat
	default: // IntAlu, Branch, Nop, sync ops in normal mode
		done = now + 1
	}
	if done <= now {
		done = now + 1
	}
	c.schedule(di, now, done)
	return true
}

// executeLoad performs the data-cache access for a load. Normal mode uses
// a demand access and records long-latency misses (the STALL/FLUSH/RaT
// trigger). Runahead mode converts L2 misses into prefetches and poisons
// the destination instead of waiting (§3.2).
func (c *Core) executeLoad(t *thread, di *DynInst, now uint64) (ok bool, done uint64) {
	addr := di.addr
	if t.mode != ModeRunahead {
		res := c.hier.Access(mem.KindLoad, t.id, addr, now)
		if res.NoMSHR {
			return false, 0
		}
		if res.Level == mem.LevelMemory {
			di.isL2Miss = true
			di.doneAt = res.DoneAt // published early for the detection path
			di.missDetectAt = now + c.cfg.Mem.DL1.Latency + c.cfg.Mem.L2.Latency
			t.stats.L2MissLoads++
			c.pendingDetect = append(c.pendingDetect, wheelRef{di, di.id})
		}
		return true, res.DoneAt
	}

	// Runahead load.
	if c.racache != nil {
		line := addr &^ (c.cfg.Mem.DL1.LineBytes - 1)
		if found, invData := c.racache.LookupLoad(t.id, line); found {
			// Store-to-load communication through the runahead cache: the
			// load forwards without a memory access and inherits the
			// stored data's validity.
			di.inv = invData
			return true, now + 1
		}
	}
	if !c.cfg.Runahead.Prefetch {
		// Figure 4 "no prefetching" ablation: no access below the L1; an
		// L1 miss is poisoned, and the load is recorded so it cannot
		// re-trigger runahead after recovery (the paper's period-matching
		// methodology).
		if c.hier.DL1().Lookup(addr) {
			return true, now + c.cfg.Mem.DL1.Latency
		}
		di.inv = true
		if t.raSuppress == nil {
			t.raSuppress = make(map[uint64]struct{})
		}
		t.raSuppress[di.seq] = struct{}{}
		return true, now + 1
	}
	res := c.hier.Access(mem.KindPrefetch, t.id, addr, now)
	if res.NoMSHR {
		// No MSHR for the prefetch: poison and move on; runahead never
		// waits on memory.
		di.inv = true
		return true, now + 1
	}
	if res.Level == mem.LevelMemory {
		// Long-latency: the access stays in flight as a prefetch; the
		// load's result is poisoned and the thread keeps running.
		di.inv = true
		t.stats.PrefetchesIssued++
		return true, now + 1
	}
	return true, res.DoneAt
}

// executeRunaheadStore issues the prefetch side effects of a valid-address
// runahead store: the target line is prefetched (stores miss too), and
// with the runahead cache enabled, the store records its data validity for
// later loads.
func (c *Core) executeRunaheadStore(t *thread, di *DynInst, now uint64) {
	addr := di.addr
	if c.racache != nil {
		line := addr &^ (c.cfg.Mem.DL1.LineBytes - 1)
		invData := c.regKnownInv(di.tmpl.Src2, di.src2)
		c.racache.RecordStore(t.id, line, invData)
	}
	if c.cfg.Runahead.Prefetch {
		res := c.hier.Access(mem.KindPrefetch, t.id, addr, now)
		if !res.NoMSHR && res.Level == mem.LevelMemory {
			t.stats.PrefetchesIssued++
		}
	}
}

// schedule registers di's completion at cycle done.
func (c *Core) schedule(di *DynInst, now, done uint64) {
	if done-now >= wheelSize {
		// Unreachable: Config.Validate bounds every completion latency
		// below wheelSize, and a wrapped event would fire a lap early.
		panic(fmt.Sprintf("pipeline: completion %d cycles ahead exceeds wheel %d", done-now, wheelSize))
	}
	di.doneAt = done
	slot := done % wheelSize
	c.wheel[slot] = append(c.wheel[slot], wheelRef{di, di.id})
}

// detectMisses fires the L2-miss detections due this cycle: the paper's
// STALL/FLUSH reactions (and the runahead trigger gate) happen when the
// L2 reports the miss, roughly an L1+L2 latency after issue — not the
// instant the access leaves the core. Loads squashed or already resolved
// in the meantime detect nothing.
func (c *Core) detectMisses(now uint64) {
	if len(c.pendingDetect) == 0 {
		return
	}
	kept := c.pendingDetect[:0]
	for _, ref := range c.pendingDetect {
		di := ref.di
		if !ref.live() || di.squashed || now >= di.doneAt {
			continue
		}
		if now < di.missDetectAt {
			kept = append(kept, ref)
			continue
		}
		t := c.threads[di.tid]
		t.missUntil = max(t.missUntil, di.doneAt)
		c.policy.OnL2Miss(c, di)
	}
	c.pendingDetect = kept
}

// completeStage drains completions scheduled for this cycle: each result
// is broadcast to its waiting consumers (markReady), so a consumer whose
// last source this was is selectable in this cycle's issue scan, and
// branches resolve.
func (c *Core) completeStage(now uint64) {
	slot := now % wheelSize
	for _, ref := range c.wheel[slot] {
		di := ref.di
		if !ref.live() || di.squashed || di.completed {
			continue
		}
		di.completed = true
		if di.dst >= 0 {
			c.markReady(di.tmpl.Dst, di.dst, di.inv)
		}
		if di.tmpl.Op.IsBranch() {
			c.resolveBranch(di, now)
		}
	}
	c.wheel[slot] = c.wheel[slot][:0]
}

// resolveBranch trains the predictor and lifts the fetch block of a
// resolved misprediction, charging the redirect penalty.
func (c *Core) resolveBranch(di *DynInst, now uint64) {
	t := c.threads[di.tid]
	t.stats.BranchResolved++
	if !di.inv {
		t.bp.Update(di.tmpl.PC, di.tmpl.Taken)
	}
	if di.mispredicted {
		t.stats.BranchMispredicted++
		if t.blockingBranch == di {
			t.blockingBranch = nil
			t.haveFetchLine = false
			redirect := now + 1 + c.cfg.MispredictRedirect
			if redirect > t.fetchBlockedUntil {
				t.fetchBlockedUntil = redirect
			}
		}
	}
}

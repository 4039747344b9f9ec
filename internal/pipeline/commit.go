package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mem"
)

// commitStage retires up to Width instructions across threads, rotating
// the starting thread for fairness. Per-thread retirement is in program
// order from the thread's ROB head. This stage owns the Runahead Threads
// mode transitions: a long-latency load blocking a thread's head enters
// runahead (§3.1); a runahead thread pseudo-retires instead of committing;
// and when the triggering miss resolves, the thread restores its
// checkpoint and resumes normal execution.
func (c *Core) commitStage(now uint64) {
	n := len(c.threads)
	i := int(now % uint64(n)) // reduce before converting: int(now) goes negative past 2^63
	budget := c.cfg.Width
	for k := 0; k < n && budget > 0; k++ {
		c.commitThread(c.threads[i], now, &budget)
		if i++; i == n {
			i = 0
		}
	}
}

// commitThread retires from one thread's head while budget lasts.
func (c *Core) commitThread(t *thread, now uint64, budget *int) {
	for *budget > 0 {
		if t.mode == ModeRunahead && now >= t.raExitAt {
			c.exitRunahead(t, now)
			// Fall through in normal mode next cycle (the pipe is empty).
			return
		}
		if t.rob.len() == 0 {
			return
		}
		head := t.rob.front()
		if t.mode == ModeNormal {
			if !head.completed {
				if c.shouldEnterRunahead(t, head, now) {
					c.enterRunahead(t, head, now)
					continue // head is now poisoned-complete; pseudo-retire path
				}
				return
			}
			if head.tmpl.Op.IsStore() {
				// Stores write memory at commit; an exhausted MSHR file
				// stalls commit for this thread until a slot frees.
				res := c.hier.Access(mem.KindStore, t.id, head.addr, now)
				if res.NoMSHR {
					return
				}
			}
			c.retire(t, head)
			t.stats.Committed++
		} else {
			if !head.completed {
				return
			}
			c.retire(t, head)
			t.stats.PseudoRetired++
		}
		*budget = *budget - 1
	}
}

// retire removes the head instruction from the ROB, releases its
// destination register, and recycles the instruction. A retired valid
// writer reads as architectural state, so its rename-table entry (if
// still current) clears to nil — the identical resolution — letting the
// object return to the pool immediately. A pseudo-retired *invalid*
// writer must keep resolving to poison through the table (§3.3's "when a
// physical register is invalid it can be freed and used by the rest of
// the threads" falls out of that resolution in mapGet), so it defers to
// the episode-end reclamation in exitRunahead.
func (c *Core) retire(t *thread, head *DynInst) {
	head.retired = true
	if head.dst >= 0 {
		c.fileFor(head.tmpl.Dst).Release(head.dst)
	}
	t.rob.popFront()
	c.robCount--
	if head.inv {
		t.deferredFree = append(t.deferredFree, head)
		return
	}
	if head.tmpl.HasDst() && t.writers[head.tmpl.Dst] == head {
		t.writers[head.tmpl.Dst] = nil
	}
	c.freeInst(head)
}

// shouldEnterRunahead applies the §3.1 trigger: a demand load that missed
// the L2 reaches the thread's ROB head while the miss is still
// outstanding.
func (c *Core) shouldEnterRunahead(t *thread, head *DynInst, now uint64) bool {
	if !c.cfg.Runahead.Enabled {
		return false
	}
	if !head.tmpl.Op.IsLoad() || !head.issued || head.completed || !head.isL2Miss {
		return false
	}
	if now < head.missDetectAt {
		return false // the L2 has not reported the miss yet
	}
	if now >= head.doneAt {
		return false // resolves this cycle anyway
	}
	if _, ok := t.raSuppress[head.seq]; ok {
		// Figure 4 methodology: loads invalidated during a no-prefetch
		// episode must not re-trigger runahead after recovery.
		return false
	}
	return true
}

// enterRunahead checkpoints the thread and switches it to runahead mode.
// The checkpoint is implicit: the trigger load sits at the thread's ROB
// head, so everything older is committed and the per-thread architectural
// state is exactly the committed state — only the trace position needs
// recording. The trigger load's destination is poisoned and the load
// pseudo-retires immediately; its miss remains in flight as the episode's
// terminator.
func (c *Core) enterRunahead(t *thread, head *DynInst, now uint64) {
	t.mode = ModeRunahead
	t.raExitAt = head.doneAt
	t.raLoadSeq = head.seq
	t.raEntered = now
	t.stats.RunaheadEpisodes++

	head.inv = true
	head.completed = true
	if head.dst >= 0 {
		c.markReady(head.tmpl.Dst, head.dst, true)
	}
}

// exitRunahead ends the episode: every in-flight instruction of the thread
// is squashed, the rename map returns to the checkpoint (all-committed)
// state, and fetch restarts at the trigger load after the exit penalty.
// The re-executed load finds its line filled (or its MSHR about to fill).
func (c *Core) exitRunahead(t *thread, now uint64) {
	c.squashThread(t)
	if c.paranoid {
		if live := t.liveWriters(); live != 0 {
			panic(fmt.Sprintf("pipeline: thread %d exits runahead with %d live mappings", t.id, live))
		}
	}
	t.resetWriters() // checkpoint restore: all state architectural, poison gone
	for i, di := range t.deferredFree {
		c.freeInst(di)
		t.deferredFree[i] = nil
	}
	t.deferredFree = t.deferredFree[:0]
	if c.racache != nil {
		c.racache.FlushThread(t.id)
	}
	t.mode = ModeNormal
	t.cursor = t.raLoadSeq
	t.fetchBlockedUntil = now + c.cfg.Runahead.ExitPenalty
	t.blockingBranch = nil
	t.haveFetchLine = false
}

// squashThread discards every in-flight instruction of t: the whole ROB
// window (youngest first, unwinding the rename map) and the front-end
// queue.
func (c *Core) squashThread(t *thread) {
	for t.rob.len() > 0 {
		c.unwind(t, t.rob.popBack())
		c.robCount--
	}
	c.dropFrontEnd(t)
}

// FlushAfter implements the FLUSH policy's action (Tullsen & Brown): all
// instructions of the thread younger than the long-latency load are
// squashed, releasing their resources; fetch restarts behind the load.
// The caller (the policy) also blocks fetch until the miss resolves.
func (c *Core) FlushAfter(ld *DynInst) {
	t := c.threads[ld.tid]
	for t.rob.len() > 0 {
		di := t.rob.back()
		if di == ld || di.id <= ld.id {
			break
		}
		t.rob.popBack()
		c.robCount--
		c.unwind(t, di)
	}
	c.dropFrontEnd(t)
	t.cursor = ld.seq + 1
	t.blockingBranch = nil
	t.haveFetchLine = false
}

// dropFrontEnd discards the not-yet-renamed front-end queue. Front-end
// instructions were never renamed or scheduled, so nothing else can
// reference them and they recycle immediately. Callers that may leave a
// blockingBranch in the queue clear that pointer themselves.
func (c *Core) dropFrontEnd(t *thread) {
	for i := 0; i < t.fq.len(); i++ {
		di := t.fq.at(i)
		di.squashed = true
		t.icount--
		t.stats.Squashed++
		c.freeInst(di)
	}
	t.fq.clear()
}

// unwind squashes one renamed, in-flight instruction: references drop,
// the rename map rolls back (callers iterate youngest-first so the
// previous-mapping chain reconstructs exactly), the destination register
// releases, and any issue-queue slot frees.
func (c *Core) unwind(t *thread, di *DynInst) {
	di.squashed = true
	if !di.refsReleased {
		c.releaseRefs(di)
	}
	if di.tmpl.HasDst() {
		// Youngest-first iteration guarantees di is the current table
		// entry; restoring its predecessor reconstructs the pre-rename
		// state exactly (a retired predecessor reads as architectural).
		// A predecessor returned to the pool (or already recycled — the
		// id changed) had retired valid, which also reads as
		// architectural: restore nil, never a pooled object.
		w := di.prevWriter
		if w != nil && (w.pooled || w.id != di.prevWriterID) {
			w = nil
		}
		t.writers[di.tmpl.Dst] = w
	}
	if di.dst >= 0 {
		c.fileFor(di.tmpl.Dst).Release(di.dst)
	}
	if !di.issued && !di.folded {
		c.iqs[di.iq].count--
		t.iqHeld[di.iq]--
		t.icount--
	}
	if t.blockingBranch == di {
		t.blockingBranch = nil
	}
	t.stats.Squashed++
	// Any remaining references (a ready-list entry until the next issue
	// scan, wheel and detection events) are filtered by the squashed flag
	// or by id validation; the object itself can recycle now.
	c.freeInst(di)
}

// CheckInvariants validates cross-structure consistency; the paranoid mode
// runs it every cycle. The queue entries are found by walking each
// thread's ROB, so the oracle does not trust the ready lists it checks.
func (c *Core) CheckInvariants() error {
	if err := c.intRF.CheckInvariants(); err != nil {
		return err
	}
	if err := c.fpRF.CheckInvariants(); err != nil {
		return err
	}
	robTotal := 0
	var live [4]int
	var selectable [4][]*DynInst
	for _, t := range c.threads {
		robTotal += t.rob.len()
		queued := 0
		for i := 0; i < t.rob.len(); i++ {
			di := t.rob.at(i)
			if di.iq == IQNone || di.issued || di.folded {
				continue
			}
			queued++
			live[di.iq]++
			if di.pending == 0 || di.invSrc {
				selectable[di.iq] = append(selectable[di.iq], di)
			}
			if err := c.checkWakeup(t, di); err != nil {
				return err
			}
		}
		// icount must equal fq + unissued/unfolded queue entries.
		if want := t.fq.len() + queued; t.icount != want {
			return fmt.Errorf("thread %d: icount %d, want %d", t.id, t.icount, want)
		}
	}
	if robTotal != c.robCount {
		return fmt.Errorf("robCount %d, threads hold %d", c.robCount, robTotal)
	}
	if c.robCount > c.cfg.ROBSize {
		return fmt.Errorf("ROB over capacity: %d > %d", c.robCount, c.cfg.ROBSize)
	}
	for _, q := range c.iqs[1:] {
		if live[q.kind] != q.count {
			return fmt.Errorf("queue %d: %d live entries, count %d", q.kind, live[q.kind], q.count)
		}
		if q.count > q.cap {
			return fmt.Errorf("queue %d over capacity: %d > %d", q.kind, q.count, q.cap)
		}
		if err := checkReadyList(q, selectable[q.kind]); err != nil {
			return err
		}
	}
	return nil
}

// checkReadyList holds q's ready list against want, the live selectable
// entries found in the ROBs: the list strictly increases in qseq, no
// wakeup landed behind a scan, every non-squashed entry on it is live in
// q, and those entries are exactly want.
func checkReadyList(q *issueQueue, want []*DynInst) error {
	if q.wokeBehind != 0 {
		return fmt.Errorf("queue %d: %d wakeups landed behind the issue scan", q.kind, q.wokeBehind)
	}
	for i := 1; i < len(q.ready); i++ {
		if prev, di := q.ready[i-1], q.ready[i]; prev.qseq >= di.qseq {
			return fmt.Errorf("queue %d: ready list out of order at %d (qseq %d after %d)",
				q.kind, i, di.qseq, prev.qseq)
		}
	}
	slices.SortFunc(want, func(a, b *DynInst) int { return cmp.Compare(a.qseq, b.qseq) })
	n := 0
	for _, di := range q.ready {
		if di.squashed {
			continue // compacted by the next scan
		}
		if di.pooled || !di.dispatched || di.iq != q.kind || di.issued || di.folded {
			return fmt.Errorf("queue %d: ready list holds inst %d, which is not live in the queue", q.kind, di.id)
		}
		if n == len(want) || want[n] != di {
			if n < len(want) && want[n].qseq < di.qseq {
				return fmt.Errorf("queue %d: inst %d is selectable but not on the ready list", q.kind, want[n].id)
			}
			return fmt.Errorf("queue %d: ready list holds inst %d (pending %d, invSrc %v), which is not a selectable ROB entry",
				q.kind, di.id, di.pending, di.invSrc)
		}
		n++
	}
	if n < len(want) {
		return fmt.Errorf("queue %d: inst %d is selectable but not on the ready list", q.kind, want[n].id)
	}
	return nil
}

// checkWakeup holds the broadcast-maintained wakeup state of the live
// queue entry di against a fresh poll of the register file: pending
// reaches zero exactly when every source has produced, and, for a
// runahead thread, invSrc is set exactly when a fold-relevant source is
// ready and INV.
func (c *Core) checkWakeup(t *thread, di *DynInst) error {
	if ready := c.operandsReady(di); (di.pending == 0) != ready {
		return fmt.Errorf("queue %d: inst %d has pending %d but operands ready=%v",
			di.iq, di.id, di.pending, ready)
	}
	if t.mode != ModeRunahead {
		return nil
	}
	if inv := c.operandInvForIssue(di); di.invSrc != inv {
		return fmt.Errorf("queue %d: inst %d has invSrc %v but fold-relevant operand INV=%v",
			di.iq, di.id, di.invSrc, inv)
	}
	return nil
}

// operandsReady polls whether all of di's renamed sources have produced
// (the oracle for pending == 0).
func (c *Core) operandsReady(di *DynInst) bool {
	if di.src1 >= 0 && !c.fileFor(di.tmpl.Src1).Ready(di.src1) {
		return false
	}
	if di.src2 >= 0 && !c.fileFor(di.tmpl.Src2).Ready(di.src2) {
		return false
	}
	return true
}

// operandInvForIssue polls whether a fold-relevant source of di is ready
// and INV (the oracle for invSrc): for memory ops only the address source
// counts; for everything else, either source.
func (c *Core) operandInvForIssue(di *DynInst) bool {
	if c.regKnownInv(di.tmpl.Src1, di.src1) {
		return true
	}
	if di.tmpl.Op.IsMem() {
		return false
	}
	return c.regKnownInv(di.tmpl.Src2, di.src2)
}

package pipeline

import (
	"repro/internal/isa"
	"repro/internal/regfile"
)

// dispatchStage renames and dispatches up to Width instructions from the
// front-end queues into the shared ROB and issue queues. Threads are
// served in rotating order for fairness; per-thread order is program
// order. Dispatch stalls a thread when the shared ROB, its issue queue,
// or a physical register is unavailable, or when the policy's resource
// caps say so — these stalls are exactly the resource contention the
// paper studies.
func (c *Core) dispatchStage(now uint64) {
	n := len(c.threads)
	i := int(now % uint64(n)) // reduce before converting: int(now) goes negative past 2^63
	budget := c.cfg.Width
	for k := 0; k < n && budget > 0; k++ {
		t := c.threads[i]
		if i++; i == n {
			i = 0
		}
		for budget > 0 && t.fq.len() > 0 {
			di := t.fq.front()
			if di.fetchReadyAt > now {
				break
			}
			if c.robCount >= c.cfg.ROBSize {
				break
			}
			if !c.policy.CanDispatch(c, t.id) {
				break
			}
			if !c.tryDispatch(t, di, now) {
				break
			}
			t.fq.popFront()
			budget--
		}
	}
}

// tryDispatch renames di and inserts it into the ROB and its issue queue,
// or folds it (runahead mode). It returns false when a structural resource
// is missing, leaving no side effects.
func (c *Core) tryDispatch(t *thread, di *DynInst, now uint64) bool {
	op := di.tmpl.Op

	if t.mode == ModeRunahead {
		// §3.3 decode-time invalidation: FP arithmetic in a runahead thread
		// consumes no resources past decode. (FP loads/stores are not "FP"
		// here — their addresses come from the integer pipeline.)
		if c.cfg.Runahead.InvalidateFP && op.IsFP() {
			c.foldAtDispatch(t, di, true)
			return true
		}
		// §3.3 synchronization: acquire/release/block are ignored in
		// runahead mode (speculation must not touch cross-thread state).
		if op.IsSync() {
			c.foldAtDispatch(t, di, false)
			return true
		}
		// Operand already known-INV: fold now, consuming nothing.
		if c.dispatchOperandInv(t, di) {
			c.foldAtDispatch(t, di, true)
			return true
		}
	}

	kind := iqKindFor(op)
	q := c.iqs[kind]
	if q.count >= q.cap {
		return false
	}
	var file *regfile.File
	if di.tmpl.HasDst() {
		file = c.fileFor(di.tmpl.Dst)
		p, ok := file.Alloc(t.id)
		if !ok {
			return false
		}
		di.dst = p
		ws := c.waitersFor(di.tmpl.Dst, p)
		*ws = (*ws)[:0]
	}

	// Rename sources, take references on in-flight producers, and wait on
	// the ones that have not produced. No fold-relevant source can be
	// ready and INV here: in runahead mode dispatchOperandInv folded the
	// instruction above, and a normal-mode thread holds no INV values.
	di.src1 = t.mapGet(di.tmpl.Src1)
	di.src2 = t.mapGet(di.tmpl.Src2)
	c.watchSource(di, di.tmpl.Src1, di.src1)
	c.watchSource(di, di.tmpl.Src2, di.src2)
	if di.tmpl.HasDst() {
		di.prevWriter = t.writers[di.tmpl.Dst]
		if di.prevWriter != nil {
			di.prevWriterID = di.prevWriter.id
		}
		t.writers[di.tmpl.Dst] = di
	}

	di.iq = kind
	di.dispatched = true
	c.nextQseq++
	di.qseq = c.nextQseq
	if di.pending == 0 {
		// The youngest entry: appending keeps the ready list in age order.
		q.ready = append(q.ready, di)
	}
	q.count++
	t.iqHeld[kind]++
	t.rob.pushBack(di)
	c.robCount++
	return true
}

// watchSource takes a reference on a renamed source backed by a physical
// register and, if its producer has not produced yet, counts it pending
// and joins the register's waiter list.
func (c *Core) watchSource(di *DynInst, a isa.Reg, p regfile.PhysReg) {
	if p < 0 {
		return
	}
	f := c.fileFor(a)
	f.IncRef(p)
	if !f.Ready(p) {
		di.pending++
		ws := c.waitersFor(a, p)
		*ws = append(*ws, wheelRef{di, di.id})
	}
}

// dispatchOperandInv reports whether di's relevant source operands are
// already known-invalid. For memory operations only the address source
// matters (src1): a store whose *data* is INV still computes its address —
// and, with the runahead cache, records the invalid data for store-to-load
// communication.
func (c *Core) dispatchOperandInv(t *thread, di *DynInst) bool {
	op := di.tmpl.Op
	inv1 := c.regKnownInv(di.tmpl.Src1, t.mapGet(di.tmpl.Src1))
	if op.IsMem() {
		return inv1
	}
	return inv1 || c.regKnownInv(di.tmpl.Src2, t.mapGet(di.tmpl.Src2))
}

// regKnownInv reports whether a renamed operand is ready and INV.
func (c *Core) regKnownInv(a isa.Reg, p regfile.PhysReg) bool {
	if p == regfile.Invalid {
		return true
	}
	if p < 0 {
		return false
	}
	f := c.fileFor(a)
	return f.Ready(p) && f.Inv(p)
}

// foldAtDispatch retires di into the ROB as a folded instruction: no issue
// queue entry, no functional unit, no physical register. Its destination
// (if any) maps to the Invalid sentinel so consumers inherit the poison.
func (c *Core) foldAtDispatch(t *thread, di *DynInst, inv bool) {
	if di.tmpl.HasDst() {
		di.dst = regfile.Invalid
		di.prevWriter = t.writers[di.tmpl.Dst]
		if di.prevWriter != nil {
			di.prevWriterID = di.prevWriter.id
		}
		t.writers[di.tmpl.Dst] = di
	}
	di.folded = true
	di.completed = true
	di.inv = inv
	di.iq = IQNone
	di.dispatched = true
	di.refsReleased = true // no references were ever taken
	t.rob.pushBack(di)
	c.robCount++
	t.icount-- // leaves the fetch-to-issue population immediately
	t.stats.Folded++
}

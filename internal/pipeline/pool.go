package pipeline

// This file holds the allocation-free steady-state machinery of the hot
// loop: the per-core DynInst free list and the ring buffers backing the
// front-end and ROB windows. Both reach a fixed footprint after warmup,
// after which Step performs no heap allocation.

// allocInst returns a zeroed DynInst from the core's free list (or the
// heap when the list is empty), stamped with a fresh global id. Because
// every reuse changes the id, stale references held by the completion
// wheel or the miss-detection list are recognized and dropped by id
// comparison instead of by lifetime bookkeeping.
func (c *Core) allocInst() *DynInst {
	var di *DynInst
	if n := len(c.freeInsts); n > 0 {
		di = c.freeInsts[n-1]
		c.freeInsts[n-1] = nil
		c.freeInsts = c.freeInsts[:n-1]
		*di = DynInst{}
	} else {
		di = &DynInst{}
	}
	di.id = c.nextID
	c.nextID++
	return di
}

// freeInst recycles an instruction that has left the machine (retired with
// no live rename-table reference, squashed, or dropped from the front
// end). The object's terminal flags are deliberately left set until
// reallocation: an issue queue's ready list drops a squashed entry only at
// its next scan, which runs before fetch can reallocate the object, and
// must see it squashed until then.
//
// Freeing is only legal once the instruction can no longer be resolved
// through a thread's rename table; retire and exitRunahead enforce that.
func (c *Core) freeInst(di *DynInst) {
	if di.pooled {
		return
	}
	di.pooled = true
	c.freeInsts = append(c.freeInsts, di)
}

// reclaimInsts returns every instruction still in the machine to the free
// list: the front-end queues, the ROB windows and the pseudo-retired
// instructions awaiting their episode's end. Every other instruction the
// core took from the heap is on the free list already, so afterwards all
// of them are, cleared so that none keeps its trace alive. Only Reset
// calls it, as it discards the state that still names these instructions.
func (c *Core) reclaimInsts() {
	for _, t := range c.threads {
		for i := 0; i < t.fq.len(); i++ {
			c.freeInst(t.fq.at(i))
		}
		for i := 0; i < t.rob.len(); i++ {
			c.freeInst(t.rob.at(i))
		}
		for _, di := range t.deferredFree {
			c.freeInst(di)
		}
	}
	for _, di := range c.freeInsts {
		*di = DynInst{pooled: true}
	}
}

// instRing is a growable power-of-two ring buffer of instructions. The
// front-end queue and per-thread ROB windows use it so that steady-state
// push/pop cycles touch no allocator (a plain slice advanced with s[1:]
// leaks capacity and reallocates forever).
type instRing struct {
	buf  []*DynInst
	head int
	n    int
}

// reset empties r and sizes it for at least capHint entries, keeping its
// buffer when that fits (a larger buffer is a grown ring, and behaves as
// one).
func (r *instRing) reset(capHint int) {
	cp := 8
	for cp < capHint {
		cp <<= 1
	}
	if len(r.buf) >= cp {
		clear(r.buf)
		r.head, r.n = 0, 0
		return
	}
	*r = instRing{buf: make([]*DynInst, cp)}
}

// len returns the number of buffered instructions.
func (r *instRing) len() int { return r.n }

// at returns the i-th instruction in queue order (0 = oldest).
func (r *instRing) at(i int) *DynInst {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// front returns the oldest instruction.
func (r *instRing) front() *DynInst { return r.buf[r.head] }

// back returns the youngest instruction.
func (r *instRing) back() *DynInst { return r.at(r.n - 1) }

// pushBack appends an instruction, growing the ring if full.
func (r *instRing) pushBack(di *DynInst) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = di
	r.n++
}

// popFront removes and returns the oldest instruction.
func (r *instRing) popFront() *DynInst {
	di := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return di
}

// popBack removes and returns the youngest instruction.
func (r *instRing) popBack() *DynInst {
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	di := r.buf[i]
	r.buf[i] = nil
	r.n--
	return di
}

// clear drops every entry (the callers free the instructions themselves).
func (r *instRing) clear() {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = nil
	}
	r.head, r.n = 0, 0
}

// grow doubles the ring, unrolling the wrapped region.
func (r *instRing) grow() {
	nb := make([]*DynInst, len(r.buf)*2)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
}

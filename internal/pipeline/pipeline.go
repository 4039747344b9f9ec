// Package pipeline implements the cycle-level SMT out-of-order core: an
// 8-wide, 10-stage machine with a shared 512-entry reorder buffer, shared
// issue queues and physical register files, per-thread rename maps, a
// shared perceptron branch predictor, and the Runahead Threads mechanism
// woven through its dispatch, issue and commit stages.
//
// One call to Step advances the machine one cycle. Stages run in reverse
// pipeline order (commit, issue, dispatch, fetch) so a resource freed in
// cycle N is usable in cycle N+1, not N — the usual discrete-timing
// discipline for synchronous pipeline models.
//
// Issue is wakeup-driven rather than polled. At dispatch an instruction
// counts its sources whose producers have not produced (pending) and joins
// each such physical register's waiter list; every site that makes a
// register ready — completion, a runahead fold in the queue, and the
// trigger load's poisoning at runahead entry — goes through markReady,
// which counts the waiters down and sets invSrc on those for which the
// register is a poisoned fold-relevant source. The invariants, checked
// against a register-file poll by paranoid mode every cycle, are: a live
// queue entry has pending == 0 exactly when all its sources are ready,
// and, in a runahead thread, invSrc exactly when a fold-relevant source is
// ready and INV.
//
// An issue queue is therefore a count plus a ready list. The count is the
// occupancy that dispatch and the policies see. The ready list holds, in
// dispatch order (the qseq stamp), exactly the live entries that the
// issue scan can act on: pending == 0 or invSrc. An entry joins it at
// dispatch if nothing is pending, or when a markReady broadcast makes it
// selectable; until then it is reachable only through its sources' waiter
// lists, so the scan never touches an instruction stuck behind a miss.
//
// A fold broadcasts at once, and its consumers are always younger than
// the fold (they renamed its destination after it dispatched). So a
// consumer woken mid-scan lands in the unscanned tail of the queue being
// scanned, or in a queue scanned later, and poison cascades within a
// cycle along the scan order: an IQInt fold folds its IQInt and IQLS
// consumers in the same cycle, an IQLS fold reaches IQInt consumers in
// the next. A wakeup that would land behind the scan position breaks this
// rule; the queue counts it and paranoid mode reports it.
package pipeline

import (
	"fmt"
	"slices"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/regfile"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// Policy is the fetch/resource policy plugged into the core. The paper's
// static fetch policies (ICOUNT, STALL, FLUSH) and dynamic resource
// controllers (DCRA, Hill Climbing) all implement it; RaT itself is not a
// Policy but a core mechanism enabled through Config.Runahead, composed
// with the ICOUNT fetch policy exactly as in the paper.
type Policy interface {
	// FetchPriority appends to buf the threads allowed to fetch this
	// cycle, highest priority first. Mechanically-blocked threads are
	// filtered afterwards by the core.
	FetchPriority(c *Core, buf []int) []int
	// CanDispatch gates per-thread dispatch (resource caps; DCRA and Hill
	// Climbing live here).
	CanDispatch(c *Core, tid int) bool
	// OnL2Miss fires when a demand load by a normal-mode thread is served
	// by main memory (the FLUSH trigger).
	OnL2Miss(c *Core, ld *DynInst)
	// Tick runs once per cycle after all stages (epoch bookkeeping).
	Tick(c *Core)
}

// wheelSize is the completion ring capacity. Config.Validate rejects a
// machine whose longest completion latency (maxCompletionLatency) does
// not fit, so the ring never wraps past an in-flight event.
const wheelSize = 1024

// issueQueue is one shared issue queue: an occupancy count and the ready
// list of its selectable entries (see the package doc).
type issueQueue struct {
	kind  IQKind
	cap   int
	count int
	// ready holds the live entries with pending == 0 or invSrc in
	// ascending qseq order. Entries squashed since they joined stay until
	// the next scan compacts them out.
	ready []*DynInst
	// scanSeq is the qseq of the entry the issue scan is visiting (0
	// outside a scan); wokeBehind counts wakeups that landed at or before
	// it, each a breach of the mid-scan ordering rule.
	scanSeq    uint64
	wokeBehind int
}

// wake puts di on the ready list at its age position. A wakeup during
// this queue's scan comes from a fold and names a younger consumer, so
// the backward search stops at the entry being visited or after it, and
// di lands in the unscanned tail.
func (q *issueQueue) wake(di *DynInst) {
	q.ready = append(q.ready, di)
	i := len(q.ready) - 1
	for ; i > 0 && q.ready[i-1].qseq > di.qseq; i-- {
		q.ready[i] = q.ready[i-1]
	}
	q.ready[i] = di
	if di.qseq <= q.scanSeq {
		q.wokeBehind++
	}
}

// wheelRef is a validated reference to an in-flight instruction held by
// the completion wheel or the miss-detection list. Both structures can
// outlive the instruction (it may squash and be recycled first); the id
// snapshot detects reuse, so stale events are dropped instead of firing
// against an unrelated recycled instruction.
type wheelRef struct {
	di *DynInst
	id uint64
}

// live reports whether the reference still names the instruction it was
// taken on.
func (r wheelRef) live() bool { return r.di.id == r.id }

// Core is the SMT processor. The zero value is an empty core: Reset
// builds a machine in it, and New is Reset on a new one.
type Core struct {
	cfg     Config
	hier    *mem.Hierarchy
	intRF   *regfile.File
	fpRF    *regfile.File
	threads []*thread
	preds   []*bpred.Perceptron // one per thread, over one shared table
	policy  Policy
	racache *runahead.Cache

	iqs    [4]*issueQueue // indexed by IQKind; IQNone unused
	fuBusy [4][]uint64    // per-class unit busy-until cycles

	// intWaiters and fpWaiters hold, per physical register, the queued
	// consumers waiting for it to produce (see markReady). A register's
	// list is reset when it is allocated, so entries left by squashed
	// consumers never outlive the allocation they waited on.
	intWaiters, fpWaiters [][]wheelRef

	// wheel holds the completion events by cycle modulo wheelSize. It is
	// its own allocation so that a Core stays small enough to rebuild by
	// value in Reset.
	wheel         *[wheelSize][]wheelRef
	pendingDetect []wheelRef // L2 misses awaiting detection
	cycle         uint64
	nextID        uint64
	nextQseq      uint64 // dispatch stamp source; the first entry gets 1
	robCount      int

	// freeInsts is the DynInst recycling pool; see pool.go.
	freeInsts []*DynInst

	orderBuf []int
	// paranoid enables per-cycle invariant checking (tests).
	paranoid bool
}

// New builds a core running the given traces (one per hardware context)
// under the given policy. A nil policy selects plain ICOUNT.
func New(cfg Config, traces []*trace.Trace, pol Policy) (*Core, error) {
	c := &Core{}
	if err := c.Reset(cfg, traces, pol); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds c in place as the machine New(cfg, traces, pol) returns,
// whatever state c is in: empty, finished, or stopped mid-run with
// instructions in flight, a runahead episode open and misses outstanding.
// Every instruction the core allocated returns to its free list, and
// every buffer whose size still fits is kept: cache tag and LRU arrays,
// the perceptron table, register-file state and free lists, waiter lists
// and completion-wheel slots, issue-queue ready lists, per-thread rings
// and suppression sets. Parts whose size no longer fits are reallocated.
// On error c is unchanged.
func (c *Core) Reset(cfg Config, traces []*trace.Trace, pol Policy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(traces) == 0 {
		return fmt.Errorf("pipeline: no threads")
	}
	if len(traces) > 8 {
		return fmt.Errorf("pipeline: %d threads exceeds the 8-context limit", len(traces))
	}
	if pol == nil {
		pol = ICount{}
	}
	c.reclaimInsts()
	wheel := c.wheel
	if wheel == nil {
		wheel = new([wheelSize][]wheelRef)
	}
	for i := range wheel {
		wheel[i] = wheel[i][:0]
	}
	hier, intRF, fpRF := c.hier, c.intRF, c.fpRF
	if hier == nil {
		hier, intRF, fpRF = mem.NewHierarchy(cfg.Mem), regfile.New("int", cfg.IntRegs), regfile.New("fp", cfg.FPRegs)
	} else {
		hier.Reset(cfg.Mem)
		intRF.Reset(cfg.IntRegs)
		fpRF.Reset(cfg.FPRegs)
	}
	var racache *runahead.Cache
	if cfg.Runahead.UseRunaheadCache {
		if racache = c.racache; racache == nil {
			racache = runahead.NewCache(cfg.RunaheadCacheEntries)
		} else {
			racache.Reset(cfg.RunaheadCacheEntries)
		}
	}
	preds := bpred.ResetShared(c.preds, cfg.BranchPredRows, len(traces))
	threads := c.threads[:0]
	for i, tr := range traces {
		t := &thread{}
		if i < len(c.threads) {
			t = c.threads[i]
		}
		t.reset(i, tr, preds[i], cfg)
		threads = append(threads, t)
	}
	if len(threads) < len(c.threads) {
		clear(c.threads[len(threads):]) // drop contexts no longer used, and their traces
	}
	*c = Core{
		cfg:           cfg,
		hier:          hier,
		intRF:         intRF,
		fpRF:          fpRF,
		threads:       threads,
		preds:         preds,
		policy:        pol,
		racache:       racache,
		intWaiters:    resetWaiters(c.intWaiters, cfg.IntRegs),
		fpWaiters:     resetWaiters(c.fpWaiters, cfg.FPRegs),
		wheel:         wheel,
		pendingDetect: c.pendingDetect[:0],
		freeInsts:     c.freeInsts,
		orderBuf:      slices.Grow(c.orderBuf[:0], len(traces)),
		iqs: [4]*issueQueue{
			IQInt: c.iqs[IQInt].reset(IQInt, cfg.IntIQ),
			IQFP:  c.iqs[IQFP].reset(IQFP, cfg.FPIQ),
			IQLS:  c.iqs[IQLS].reset(IQLS, cfg.LSIQ),
		},
		fuBusy: [4][]uint64{
			IQInt: resetUnits(c.fuBusy[IQInt], cfg.IntFU),
			IQFP:  resetUnits(c.fuBusy[IQFP], cfg.FPFU),
			IQLS:  resetUnits(c.fuBusy[IQLS], cfg.LSFU),
		},
	}
	return nil
}

// reset empties q (a nil q is a new queue) and sizes it to size entries,
// keeping its ready list's storage when that fits.
func (q *issueQueue) reset(kind IQKind, size int) *issueQueue {
	if q == nil || cap(q.ready) < size {
		return &issueQueue{kind: kind, cap: size, ready: make([]*DynInst, 0, size)}
	}
	*q = issueQueue{kind: kind, cap: size, ready: q.ready[:0]}
	return q
}

// resetWaiters returns n empty waiter lists, reusing ws's lists and their
// storage.
func resetWaiters(ws [][]wheelRef, n int) [][]wheelRef {
	if cap(ws) < n {
		grown := make([][]wheelRef, n)
		copy(grown, ws[:cap(ws)])
		ws = grown
	}
	ws = ws[:cap(ws)]
	for i := range ws {
		ws[i] = ws[i][:0]
	}
	return ws[:n]
}

// resetUnits returns n idle functional units, reusing busy's storage when
// it fits.
func resetUnits(busy []uint64, n int) []uint64 {
	if cap(busy) < n {
		return make([]uint64, n)
	}
	busy = busy[:n]
	clear(busy)
	return busy
}

// SetParanoid toggles per-cycle invariant checking (slow; tests only).
func (c *Core) SetParanoid(on bool) { c.paranoid = on }

// WarmupICache installs every code line of every thread's trace into the
// instruction cache hierarchy, untimed, and leaves the data caches cold.
// It is the tests' warm-up: without it a short simulation spends its
// first thousands of cycles serializing on cold code misses, while cold
// data caches let a test provoke the L2 misses it is about. Measured runs
// (core) call WarmupCaches instead.
func (c *Core) WarmupICache() {
	for _, t := range c.threads {
		for i := 0; i < t.tr.Len(); i++ {
			c.hier.Prewarm(mem.KindIfetch, t.id, t.tr.At(uint64(i)).PC)
		}
	}
}

// WarmupCaches performs an untimed warm pass that installs every code and
// data line trace iteration 0 touches (positions 0 to Len-1, data at
// AddrAt), interleaved across threads. Trace.AddrAt shifts cold addresses
// only from iteration 1, so until then a thread's accesses hit in the L2
// unless this pass itself evicted the line there (the iteration-0 lines
// of all threads overflowing a set). It stands in for the paper's warm SimPoint checkpoints, but holds more
// than a steady-state cache: exactly the lines iteration 0 touches.
func (c *Core) WarmupCaches() {
	maxLen := 0
	for _, t := range c.threads {
		if t.tr.Len() > maxLen {
			maxLen = t.tr.Len()
		}
	}
	for i := 0; i < maxLen; i++ {
		for _, t := range c.threads {
			if i >= t.tr.Len() {
				continue
			}
			in := t.tr.At(uint64(i))
			c.hier.Prewarm(mem.KindIfetch, t.id, in.PC)
			if in.Op.IsMem() {
				kind := mem.KindLoad
				if in.Op.IsStore() {
					kind = mem.KindStore
				}
				c.hier.Prewarm(kind, t.id, t.tr.AddrAt(uint64(i)))
			}
		}
	}
}

// Step advances the machine by one cycle.
func (c *Core) Step() {
	now := c.cycle
	c.completeStage(now)
	c.detectMisses(now)
	c.commitStage(now)
	c.issueStage(now)
	c.dispatchStage(now)
	c.fetchStage(now)
	c.policy.Tick(c)
	c.sample()
	if c.paranoid {
		if err := c.CheckInvariants(); err != nil {
			// Step returns no error, so a failed check halts.
			panic(fmt.Sprintf("cycle %d: %v", now, err))
		}
	}
	c.cycle++
}

// sample records the per-cycle statistics (Figure 5's register occupancy
// by mode).
func (c *Core) sample() {
	for _, t := range c.threads {
		regs := uint64(c.intRF.OwnerCount(t.id) + c.fpRF.OwnerCount(t.id))
		if t.mode == ModeRunahead {
			t.stats.RegCyclesRunahead += regs
			t.stats.CyclesInRunahead++
		} else {
			t.stats.RegCyclesNormal += regs
		}
	}
}

// --- Accessors (the policy/harness query API) -------------------------------

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// SetCycle forces the cycle counter. It exists so tests can probe
// cycle-dependent policy arithmetic at counts unreachable by stepping
// (e.g. round-robin rotation past 2^63); simulation code never calls it,
// and calling it on a machine with in-flight state would desynchronize
// every busy-until comparison.
func (c *Core) SetCycle(n uint64) { c.cycle = n }

// NumThreads returns the number of hardware contexts.
func (c *Core) NumThreads() int { return len(c.threads) }

// Config returns the core configuration.
func (c *Core) Config() Config { return c.cfg }

// PendingL2Miss reports whether tid has a demand L2 miss outstanding.
func (c *Core) PendingL2Miss(tid int) bool {
	return c.threads[tid].pendingL2Miss(c.cycle)
}

// FetchCursor returns tid's next trace position to fetch. Policies that
// gate fetch by instruction distance (the MLP-aware fetch policy) consult
// it.
func (c *Core) FetchCursor(tid int) uint64 { return c.threads[tid].cursor }

// InRunahead reports whether tid is in runahead mode.
func (c *Core) InRunahead(tid int) bool {
	return c.threads[tid].mode == ModeRunahead
}

// ROBOccupancy returns the number of ROB entries held by tid.
func (c *Core) ROBOccupancy(tid int) int { return c.threads[tid].rob.len() }

// IQHeld returns the issue-queue entries of the given kind held by tid.
func (c *Core) IQHeld(tid int, kind IQKind) int { return c.threads[tid].iqHeld[kind] }

// IntRegsHeld returns the integer registers held by tid.
func (c *Core) IntRegsHeld(tid int) int { return c.intRF.OwnerCount(tid) }

// FPRegsHeld returns the FP registers held by tid.
func (c *Core) FPRegsHeld(tid int) int { return c.fpRF.OwnerCount(tid) }

// Committed returns tid's architecturally committed instruction count.
func (c *Core) Committed(tid int) uint64 { return c.threads[tid].stats.Committed }

// CommittedTotal sums committed instructions over all threads.
func (c *Core) CommittedTotal() uint64 {
	var s uint64
	for _, t := range c.threads {
		s += t.stats.Committed
	}
	return s
}

// Stats returns tid's statistics block.
func (c *Core) Stats(tid int) *ThreadStats { return &c.threads[tid].stats }

// BlockFetchUntil prevents tid from fetching before the given cycle
// (policy hook: FLUSH's restart delay, STALL variants).
func (c *Core) BlockFetchUntil(tid int, cycle uint64) {
	t := c.threads[tid]
	if cycle > t.fetchBlockedUntil {
		t.fetchBlockedUntil = cycle
	}
}

// ThreadsByICount appends all thread ids to buf ordered by ascending
// ICOUNT (ties by id), the standard ICOUNT priority.
func (c *Core) ThreadsByICount(buf []int) []int {
	for i := range c.threads {
		buf = append(buf, i)
	}
	// Insertion sort: n <= 8.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0; j-- {
			a, b := buf[j-1], buf[j]
			if c.threads[a].icount > c.threads[b].icount ||
				(c.threads[a].icount == c.threads[b].icount && a > b) {
				buf[j-1], buf[j] = b, a
			} else {
				break
			}
		}
	}
	return buf
}

// fileFor returns the physical register file backing an architectural
// register, or nil for RegNone.
func (c *Core) fileFor(a isa.Reg) *regfile.File {
	switch {
	case a.IsInt():
		return c.intRF
	case a.IsFP():
		return c.fpRF
	}
	return nil
}

// waitersFor returns the consumer list of physical register p in a's file.
func (c *Core) waitersFor(a isa.Reg, p regfile.PhysReg) *[]wheelRef {
	if a.IsFP() {
		return &c.fpWaiters[p]
	}
	return &c.intWaiters[p]
}

// --- ICOUNT -------------------------------------------------------------------

// ICount is the baseline ICOUNT fetch policy (Tullsen et al., ISCA 1996):
// threads with the fewest in-flight (fetch-to-issue) instructions fetch
// first. It imposes no dispatch caps and no miss reaction — it is both the
// paper's baseline and the policy RaT runs under. Every other policy
// embeds it for the hooks it leaves alone and overrides only those it
// changes.
type ICount struct{}

// FetchPriority implements Policy: ascending ICOUNT order.
func (ICount) FetchPriority(c *Core, buf []int) []int { return c.ThreadsByICount(buf) }

// CanDispatch implements Policy: no caps.
func (ICount) CanDispatch(*Core, int) bool { return true }

// OnL2Miss implements Policy: no reaction.
func (ICount) OnL2Miss(*Core, *DynInst) {}

// Tick implements Policy: nothing per cycle.
func (ICount) Tick(*Core) {}

package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/trace"
)

// Mode is a thread's execution mode.
type Mode uint8

const (
	// ModeNormal is ordinary committed execution.
	ModeNormal Mode = iota
	// ModeRunahead is the speculative light mode of a Runahead Thread.
	ModeRunahead
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeRunahead {
		return "runahead"
	}
	return "normal"
}

// ThreadStats aggregates one hardware context's activity. Every field is a
// monotonic count, so a measurement window is the difference of two
// snapshots.
type ThreadStats struct {
	// Committed counts architecturally committed instructions (IPC's
	// numerator).
	Committed uint64
	// Fetched counts instructions brought into the front end.
	Fetched uint64
	// Executed counts instructions that occupied a functional unit,
	// including runahead and later-squashed work — the energy proxy the
	// paper's ED² metric (§5.3) is built on.
	Executed uint64
	// Squashed counts instructions discarded by flushes and runahead exits.
	Squashed uint64
	// BranchResolved / BranchMispredicted count resolved and mispredicted
	// branches.
	BranchResolved     uint64
	BranchMispredicted uint64
	// L2MissLoads counts normal-mode demand loads served by main memory,
	// at each execution. A load that merges into an outstanding MSHR (a
	// demand miss or a runahead prefetch) counts; stores, instruction
	// fetches and runahead loads do not. It is not a count of L2 line
	// misses: every load to a missing line counts, not only the first.
	L2MissLoads uint64
	// RunaheadEpisodes counts entries into runahead mode.
	RunaheadEpisodes uint64
	// PseudoRetired counts instructions pseudo-retired during runahead.
	PseudoRetired uint64
	// Folded counts instructions folded (never executed) due to INV
	// operands or decode-time FP invalidation.
	Folded uint64
	// PrefetchesIssued counts runahead loads/stores that went to memory.
	PrefetchesIssued uint64
	// CyclesInRunahead counts cycles spent in runahead mode.
	CyclesInRunahead uint64
	// RegCyclesNormal and RegCyclesRunahead sum the physical registers
	// (INT+FP) the thread holds each cycle, by mode: over a window, divided
	// by the normal-mode and runahead cycles, they are Figure 5's
	// occupancy means.
	RegCyclesNormal, RegCyclesRunahead uint64
}

// thread is one hardware context.
type thread struct {
	id int
	tr *trace.Trace
	bp *bpred.Perceptron

	// cursor is the next trace position to fetch (monotonic; the trace
	// wraps internally, modelling FAME re-execution).
	cursor uint64

	// fq is the front-end queue: fetched, not yet renamed.
	fq instRing
	// rob is the thread's program-order window of the shared ROB.
	rob instRing

	// writers is the rename table: the latest writer of each architectural
	// register. The physical mapping derives from the writer's state (see
	// mapGet), which makes rollback and the runahead checkpoint exact: a
	// retired writer reads as architectural state (or poison if it
	// pseudo-retired invalid), an in-flight writer reads as its physical
	// destination.
	writers [isa.NumArchRegs]*DynInst

	// icount tracks instructions between fetch and issue (the ICOUNT
	// priority input).
	icount int
	// iqHeld counts issue-queue entries currently held, per queue kind.
	iqHeld [4]int

	// Fetch gating.
	fetchBlockedUntil uint64
	blockingBranch    *DynInst // unresolved mispredicted branch stalls fetch
	lastFetchLine     uint64
	haveFetchLine     bool

	// missUntil is the latest completion cycle of the demand L2 misses
	// detected so far; STALL and FLUSH gate fetch while it is in the
	// future.
	missUntil uint64

	// Runahead state.
	mode      Mode
	raExitAt  uint64
	raLoadSeq uint64
	raEntered uint64 // cycle of entry, for period stats
	// raSuppress records (by thread-local seq) loads that were invalidated
	// during a no-prefetch runahead episode; they must not re-trigger
	// runahead after recovery (Figure 4 methodology). It is allocated at
	// its first insert, so other configurations never allocate it.
	raSuppress map[uint64]struct{}
	// deferredFree holds pseudo-retired invalid instructions: the rename
	// table keeps resolving them to poison until the episode ends, so they
	// recycle at exitRunahead (after the checkpoint restore), not at retire.
	deferredFree []*DynInst

	stats ThreadStats
}

// reset rebuilds t as context id of a fresh core running tr under cfg,
// keeping its rings' and suppression set's storage.
func (t *thread) reset(id int, tr *trace.Trace, bp *bpred.Perceptron, cfg Config) {
	fq, rob, suppress := t.fq, t.rob, t.raSuppress
	fq.reset(cfg.FetchQueue)
	rob.reset(cfg.ROBSize)
	clear(suppress)
	clear(t.deferredFree)
	*t = thread{
		id:           id,
		tr:           tr,
		bp:           bp,
		fq:           fq,
		rob:          rob,
		raSuppress:   suppress,
		deferredFree: t.deferredFree[:0],
	}
}

// mapGet resolves an architectural register to its current physical
// mapping: None for architectural (committed) state, Invalid for a
// poisoned value with no backing register, or the in-flight writer's
// destination.
func (t *thread) mapGet(a isa.Reg) regfile.PhysReg {
	if a == isa.RegNone {
		return regfile.None
	}
	w := t.writers[a]
	if w == nil {
		return regfile.None
	}
	if w.retired {
		if w.inv {
			return regfile.Invalid
		}
		return regfile.None
	}
	return w.dst
}

// resetWriters restores the rename table to the all-architectural
// checkpoint state (runahead exit).
func (t *thread) resetWriters() {
	for i := range t.writers {
		t.writers[i] = nil
	}
}

// liveWriters counts table entries naming in-flight instructions.
func (t *thread) liveWriters() int {
	n := 0
	for _, w := range t.writers {
		if w != nil && !w.retired && !w.squashed {
			n++
		}
	}
	return n
}

// pendingL2Miss reports whether the thread has a demand miss outstanding
// at cycle now.
func (t *thread) pendingL2Miss(now uint64) bool { return t.missUntil > now }

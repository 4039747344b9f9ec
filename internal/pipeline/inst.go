package pipeline

import (
	"repro/internal/isa"
	"repro/internal/regfile"
)

// IQKind selects which issue queue an instruction waits in.
type IQKind uint8

const (
	// IQNone marks instructions that never enter an issue queue (folded
	// runahead instructions).
	IQNone IQKind = iota
	// IQInt is the integer queue (ALU, multiply, branches, sync ops).
	IQInt
	// IQFP is the floating-point queue.
	IQFP
	// IQLS is the load/store queue.
	IQLS
)

// iqKindFor maps an op class onto its issue queue.
func iqKindFor(op isa.Op) IQKind {
	switch {
	case op.IsMem():
		return IQLS
	case op.IsFP():
		return IQFP
	default:
		return IQInt
	}
}

// DynInst is one in-flight dynamic instruction. It is created at fetch and
// lives until commit, pseudo-retire, or squash.
type DynInst struct {
	// id is a globally unique, monotonically increasing identifier; age
	// comparisons (issue priority, squash ordering) use it.
	id uint64
	// tid is the hardware context executing the instruction.
	tid int
	// seq is the thread-local program-order position (monotonic across
	// trace re-executions, so it never wraps).
	seq uint64
	// tmpl aliases the trace template (immutable).
	tmpl *isa.Inst
	// addr is the resolved effective address for memory operations
	// (iteration-shifted by the trace; pure in seq, so re-execution after
	// a runahead exit or flush recomputes the identical address).
	addr uint64

	// Renamed operands; None means architectural (always ready) or absent,
	// Invalid means known-invalid without backing storage.
	dst, src1, src2 regfile.PhysReg
	// prevWriter is the instruction that previously wrote dst's
	// architectural register when this instruction renamed it (nil if the
	// value was architectural). Squash rollback restores it; reading a
	// retired prevWriter resolves to architectural state (or poison, if it
	// pseudo-retired invalid). Tracking the *writer* rather than its raw
	// register avoids the dangling-register rollback hazard when the
	// previous writer retires before the squash.
	prevWriter *DynInst
	// prevWriterID snapshots prevWriter's id at rename time. The free-list
	// pool may recycle a retired previous writer while this instruction is
	// still in flight; an id mismatch (or the pooled flag) at rollback
	// means the original retired, which reads as architectural state.
	prevWriterID uint64
	// iq is the queue the instruction was dispatched to (IQNone if folded).
	iq IQKind
	// pending counts renamed sources whose producers have not yet produced;
	// the producers' markReady broadcasts count it down to zero, at which
	// point the instruction joins its queue's ready list.
	pending int8
	// invSrc records that a fold-relevant source (src1 for memory ops,
	// either source otherwise) became ready and INV: in runahead mode the
	// instruction folds at its next queue scan.
	invSrc bool
	// qseq is the queue entry's dispatch stamp, increasing across threads
	// and queues; the ready lists are sorted by it. It differs from the
	// fetch-order id because dispatch rotates its starting thread.
	qseq uint64

	// fetchReadyAt is when the front-end pipe delivers it to rename.
	fetchReadyAt uint64
	// doneAt is the completion cycle once issued.
	doneAt uint64
	// missDetectAt is when the L2 reports this load's miss (issue + L1 +
	// L2 latency). Policies cannot react, and runahead cannot trigger,
	// before this cycle — the detection delay that lets a cluster of
	// already-issued loads keep its memory-level parallelism under FLUSH.
	missDetectAt uint64

	dispatched   bool
	issued       bool
	completed    bool
	folded       bool // runahead: never executed (INV operand / FP / sync)
	inv          bool // result is INV (runahead poison)
	squashed     bool
	refsReleased bool
	mispredicted bool // fetch-time direction guess disagreed with the trace
	isL2Miss     bool // demand load served by main memory
	retired      bool // left the ROB via commit or pseudo-retire
	pooled       bool // sitting in the core's free list (recycling guard)
}

// foldsOn reports whether register p of a's file is a fold-relevant source
// of d: for memory operations only the address source (src1) counts — a
// store whose data is INV still computes its address — and for everything
// else either source does.
func (d *DynInst) foldsOn(a isa.Reg, p regfile.PhysReg) bool {
	if !d.tmpl.Op.IsMem() {
		return true
	}
	return d.src1 == p && d.tmpl.Src1.IsFP() == a.IsFP()
}

// Thread returns the owning hardware context.
func (d *DynInst) Thread() int { return d.tid }

// Seq returns the thread-local program-order position.
func (d *DynInst) Seq() uint64 { return d.seq }

// PC returns the instruction's address.
func (d *DynInst) PC() uint64 { return d.tmpl.PC }

// DoneAt returns the instruction's completion cycle (valid once issued;
// for long-latency loads it is published as soon as the miss is detected,
// so OnL2Miss policies can read the resolution time).
func (d *DynInst) DoneAt() uint64 { return d.doneAt }

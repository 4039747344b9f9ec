// Package regfile models the shared physical register files of the SMT
// processor and the per-thread rename maps over them.
//
// The design is a "future file" organization: committed architectural
// state lives outside the physical register file (and since the simulator
// is trace-driven, it is not stored at all — only timing and validity
// matter). A physical register is allocated when an instruction renames its
// destination and lives until the instruction has retired (committed,
// pseudo-retired in runahead mode, or been squashed) *and* every consumer
// that named it has read it. Consumer tracking is an explicit reference
// count, which gives a precise, deadlock-free lifetime without modelling
// values.
//
// This organization is what lets Figure 6's register file sweep reach 64
// registers with 4 threads: the PRF only holds in-flight state, so its
// size bounds the out-of-order window rather than the architectural state.
// (The paper's merged-file accounting reserves 32 registers per thread for
// architectural state; our x-axis therefore corresponds to the paper's
// *renaming* registers.)
//
// Runahead support is built in: each register carries an INV bit (the
// paper's §3.3 "register control"), and pinning exists so checkpointed
// mappings can never be reclaimed while a runahead episode needs them.
package regfile

import (
	"fmt"

	"repro/internal/isa"
)

// PhysReg names a physical register within one File. None marks "no
// register": an operand that reads committed architectural state (always
// ready and valid) or an absent operand.
type PhysReg int32

// None is the absent physical register.
const None PhysReg = -1

// Invalid is a rename-map sentinel meaning "this architectural register's
// current value is known-invalid and no physical register backs it". It is
// produced by runahead mode's decode-time invalidation (paper §3.3: an FP
// instruction in a runahead thread is invalidated at decode and allocates
// no FP queue entry, functional unit, or physical register). Reading
// Invalid yields a ready, INV operand.
const Invalid PhysReg = -2

// regState is the per-register bookkeeping.
type regState struct {
	allocated bool
	ready     bool
	inv       bool
	pinned    bool
	dead      bool // producer retired or squashed; free when refs == 0
	refs      int32
	owner     uint8
}

// File is one physical register file (the simulator instantiates one for
// the integer side and one for the FP side, sized per Table 1).
type File struct {
	name     string
	regs     []regState
	free     []PhysReg
	inUse    int
	perOwner [8]int
}

// New builds a file with size registers. The name appears in panics and
// statistics.
func New(name string, size int) *File {
	if size <= 0 {
		//lint:panicfree constructor precondition on compiled-in machine configurations (Table 1 sizes); violation is a programming error
		panic("regfile: non-positive size")
	}
	f := &File{
		name: name,
		regs: make([]regState, size),
		free: make([]PhysReg, size),
	}
	// Free list as a stack, low registers on top for determinism.
	for i := range f.free {
		f.free[i] = PhysReg(size - 1 - i)
	}
	return f
}

// Size returns the total number of physical registers.
func (f *File) Size() int { return len(f.regs) }

// InUse returns the number of currently allocated registers; Figure 5
// samples this every cycle.
func (f *File) InUse() int { return f.inUse }

// FreeCount returns the number of registers available for allocation.
func (f *File) FreeCount() int { return len(f.free) }

// Alloc takes a register for thread tid's newly renamed destination. It
// returns (None, false) when the file is exhausted — the rename stage must
// stall that thread.
func (f *File) Alloc(tid int) (PhysReg, bool) {
	if len(f.free) == 0 {
		return None, false
	}
	p := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.regs[p] = regState{allocated: true, owner: uint8(tid)}
	f.inUse++
	f.perOwner[tid&7]++
	return p, true
}

// OwnerCount returns the number of registers currently held by thread tid.
// Figure 5 samples this per cycle, split by execution mode.
func (f *File) OwnerCount(tid int) int { return f.perOwner[tid&7] }

// IncRef records that a renamed consumer names p as a source.
func (f *File) IncRef(p PhysReg) {
	s := f.state(p)
	s.refs++
}

// DecRef records that a consumer has read p (issued, folded, or been
// squashed). The register is reclaimed when the producer is dead and the
// last reference drains.
func (f *File) DecRef(p PhysReg) {
	s := f.state(p)
	if s.refs == 0 {
		//lint:panicfree refcount underflow means rename bookkeeping corruption; continuing would free live registers and silently corrupt results
		panic(fmt.Sprintf("regfile %s: DecRef(%d) below zero", f.name, p))
	}
	s.refs--
	f.maybeFree(p)
}

// MarkReady records that the producer of p has produced its result (or
// been folded as invalid in runahead mode). The inv flag sets the
// register's INV bit.
func (f *File) MarkReady(p PhysReg, inv bool) {
	s := f.state(p)
	s.ready = true
	s.inv = inv
}

// Ready reports whether p's value is available. None (architectural state)
// and Invalid (known-invalid, unbacked) are both always "ready" — there is
// nothing to wait for.
func (f *File) Ready(p PhysReg) bool {
	if p < 0 {
		return true
	}
	return f.state(p).ready
}

// Inv reports p's INV bit. None (architectural state) is always valid;
// Invalid is, by definition, invalid.
func (f *File) Inv(p PhysReg) bool {
	if p == None {
		return false
	}
	if p == Invalid {
		return true
	}
	return f.state(p).inv
}

// Pin prevents p from being reclaimed until Unpin, regardless of refs and
// retirement. Runahead checkpoints pin the mappings they preserve.
func (f *File) Pin(p PhysReg) { f.state(p).pinned = true }

// Unpin releases a checkpoint pin and reclaims p if it was only waiting on
// the pin.
func (f *File) Unpin(p PhysReg) {
	s := f.state(p)
	if !s.pinned {
		//lint:panicfree checkpoint pin/unpin imbalance means runahead checkpoint corruption; halting beats silently wrong state restoration
		panic(fmt.Sprintf("regfile %s: Unpin(%d) of unpinned register", f.name, p))
	}
	s.pinned = false
	f.maybeFree(p)
}

// Release marks p's producer as retired (committed or pseudo-retired) or
// squashed. The register is reclaimed once all consumer references drain
// and any checkpoint pin is lifted.
func (f *File) Release(p PhysReg) {
	s := f.state(p)
	if s.dead {
		//lint:panicfree double release means retirement bookkeeping corruption; continuing would double-free a register another thread may hold
		panic(fmt.Sprintf("regfile %s: double Release(%d)", f.name, p))
	}
	s.dead = true
	f.maybeFree(p)
}

// Owner returns the thread that allocated p.
func (f *File) Owner(p PhysReg) int { return int(f.state(p).owner) }

func (f *File) maybeFree(p PhysReg) {
	s := &f.regs[p]
	if s.allocated && s.dead && !s.pinned && s.refs == 0 {
		s.allocated = false
		f.free = append(f.free, p)
		f.inUse--
		f.perOwner[s.owner&7]--
	}
}

func (f *File) state(p PhysReg) *regState {
	if p < 0 || int(p) >= len(f.regs) {
		//lint:panicfree an out-of-range tag can only come from pipeline state corruption; equivalent to the bounds check the next line would trip anyway
		panic(fmt.Sprintf("regfile %s: register %d out of range", f.name, p))
	}
	s := &f.regs[p]
	if !s.allocated {
		//lint:panicfree touching an unallocated register means a stale tag survived a squash; continuing would read garbage state
		panic(fmt.Sprintf("regfile %s: register %d not allocated", f.name, p))
	}
	return s
}

// CheckInvariants verifies internal consistency (used by tests and the
// simulator's paranoid mode): the free list and allocated flags must
// partition the file, and inUse must match.
func (f *File) CheckInvariants() error {
	onFree := make([]bool, len(f.regs))
	for _, p := range f.free {
		if onFree[p] {
			return fmt.Errorf("regfile %s: register %d on free list twice", f.name, p)
		}
		onFree[p] = true
	}
	used := 0
	for i := range f.regs {
		if f.regs[i].allocated {
			used++
			if onFree[i] {
				return fmt.Errorf("regfile %s: register %d allocated and free", f.name, i)
			}
		} else if !onFree[i] {
			return fmt.Errorf("regfile %s: register %d neither allocated nor free", f.name, i)
		}
	}
	if used != f.inUse {
		return fmt.Errorf("regfile %s: inUse=%d but %d allocated", f.name, f.inUse, used)
	}
	return nil
}

// --- Rename map --------------------------------------------------------------

// RenameMap is one thread's architectural-to-physical mapping. Entries are
// None when the architectural register's latest value is committed (the
// future-file resting state).
type RenameMap struct {
	m [isa.NumArchRegs]PhysReg
}

// NewRenameMap returns a map with every register in the committed state.
func NewRenameMap() *RenameMap {
	r := &RenameMap{}
	r.Reset()
	return r
}

// Reset returns every architectural register to the committed state.
// Runahead exit uses this: the checkpoint taken at a thread's ROB head is
// exactly "all state committed".
func (r *RenameMap) Reset() {
	for i := range r.m {
		r.m[i] = None
	}
}

// Get returns the current mapping for architectural register a, or None
// when the value is committed (or a is RegNone).
func (r *RenameMap) Get(a isa.Reg) PhysReg {
	if a == isa.RegNone {
		return None
	}
	return r.m[a]
}

// Set installs a new mapping and returns the previous one (needed for
// squash rollback).
func (r *RenameMap) Set(a isa.Reg, p PhysReg) (prev PhysReg) {
	prev = r.m[a]
	r.m[a] = p
	return prev
}

// ClearIfCurrent resets a's mapping to committed state if it still points
// at p. Commit uses this: once the writing instruction commits, later
// renames read architectural state.
func (r *RenameMap) ClearIfCurrent(a isa.Reg, p PhysReg) bool {
	if r.m[a] == p {
		r.m[a] = None
		return true
	}
	return false
}

// Live returns the number of in-flight (non-None) mappings.
func (r *RenameMap) Live() int {
	n := 0
	for _, p := range r.m {
		if p != None {
			n++
		}
	}
	return n
}

// Snapshot copies the map (checkpoint support for tests and ablations; the
// production runahead path uses Reset because its checkpoint is taken at
// the thread's ROB head where everything older is committed).
func (r *RenameMap) Snapshot() [isa.NumArchRegs]PhysReg { return r.m }

// Restore overwrites the map from a snapshot.
func (r *RenameMap) Restore(s [isa.NumArchRegs]PhysReg) { r.m = s }

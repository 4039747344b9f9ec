// Package regfile models the shared physical register files of the SMT
// processor.
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
// paper's §3.3 "register control").
package regfile

import "fmt"

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
	perOwner [8]int
}

// New builds a file with size registers. The name appears in panics and
// statistics.
func New(name string, size int) *File {
	f := &File{name: name}
	f.Reset(size)
	return f
}

// Reset rebuilds f as New builds it, with size registers, all free: the
// register state and free list keep their storage when size fits in it.
func (f *File) Reset(size int) {
	if size <= 0 {
		// pipeline.Config.Validate rejects a non-positive size first.
		panic("regfile: non-positive size")
	}
	regs, free := f.regs, f.free
	if cap(regs) >= size {
		regs = regs[:size]
		clear(regs)
	} else {
		regs = make([]regState, size)
	}
	if cap(free) >= size {
		free = free[:size]
	} else {
		free = make([]PhysReg, size)
	}
	// Free list as a stack, low registers on top for determinism.
	for i := range free {
		free[i] = PhysReg(size - 1 - i)
	}
	*f = File{name: f.name, regs: regs, free: free}
}

// Size returns the total number of physical registers.
func (f *File) Size() int { return len(f.regs) }

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
		// Rename bookkeeping is corrupt; continuing would free live registers.
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

// Release marks p's producer as retired (committed or pseudo-retired) or
// squashed. The register is reclaimed once all consumer references drain.
func (f *File) Release(p PhysReg) {
	s := f.state(p)
	if s.dead {
		// Continuing would double-free a register another thread may hold.
		panic(fmt.Sprintf("regfile %s: double Release(%d)", f.name, p))
	}
	s.dead = true
	f.maybeFree(p)
}

func (f *File) maybeFree(p PhysReg) {
	s := &f.regs[p]
	if s.allocated && s.dead && s.refs == 0 {
		s.allocated = false
		f.free = append(f.free, p)
		f.perOwner[s.owner&7]--
	}
}

func (f *File) state(p PhysReg) *regState {
	if p < 0 || int(p) >= len(f.regs) {
		panic(fmt.Sprintf("regfile %s: register %d out of range", f.name, p))
	}
	s := &f.regs[p]
	if !s.allocated {
		// A stale tag survived a squash.
		panic(fmt.Sprintf("regfile %s: register %d not allocated", f.name, p))
	}
	return s
}

// CheckInvariants verifies internal consistency (used by tests and the
// simulator's paranoid mode): the free list and allocated flags must
// partition the file.
func (f *File) CheckInvariants() error {
	onFree := make([]bool, len(f.regs))
	for _, p := range f.free {
		if onFree[p] {
			return fmt.Errorf("regfile %s: register %d on free list twice", f.name, p)
		}
		onFree[p] = true
	}
	for i := range f.regs {
		if f.regs[i].allocated {
			if onFree[i] {
				return fmt.Errorf("regfile %s: register %d allocated and free", f.name, i)
			}
		} else if !onFree[i] {
			return fmt.Errorf("regfile %s: register %d neither allocated nor free", f.name, i)
		}
	}
	return nil
}

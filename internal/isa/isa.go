// Package isa defines the synthetic instruction set executed by the SMT
// simulator.
//
// The paper's experiments run Alpha AXP-21264 binaries; this reproduction is
// trace-driven, so instead of encoding real Alpha instructions, the ISA
// captures exactly the attributes the timing and runahead machinery consume:
// operation class, register operands (32 INT + 32 FP architectural registers
// per thread, like Alpha), memory address for loads/stores, and branch
// outcome. Values are never computed — the simulator models timing
// and validity (the runahead INV machinery), which is all the paper's
// results depend on.
package isa

import "fmt"

// Op is an operation class. Classes map one-to-one onto the simulator's
// structural resources: the issue queue used, the functional unit pool, and
// the execution latency.
type Op uint8

const (
	// OpNop does nothing; it occupies fetch/decode/ROB bandwidth only.
	OpNop Op = iota
	// OpIntAlu is a single-cycle integer operation (add, logical, shift,
	// compare). The bulk of every instruction stream.
	OpIntAlu
	// OpIntMul is a multi-cycle integer multiply.
	OpIntMul
	// OpFpAlu is a pipelined floating-point add/compare/convert.
	OpFpAlu
	// OpFpMul is a pipelined floating-point multiply.
	OpFpMul
	// OpFpDiv is a long-latency, unpipelined floating-point divide.
	OpFpDiv
	// OpLoad is an integer load (address = base register + offset).
	OpLoad
	// OpStore is an integer store.
	OpStore
	// OpFpLoad is a floating-point load. Its address computation happens in
	// the integer pipeline, which is why runahead mode can still issue it as
	// a prefetch after FP invalidation (paper §3.3).
	OpFpLoad
	// OpFpStore is a floating-point store.
	OpFpStore
	// OpBranch is a conditional branch resolved at execute.
	OpBranch
	// OpAcquire, OpRelease and OpBlock are the thread-synchronization
	// primitives the paper's §3.3 discusses: in runahead mode they are
	// ignored so that a speculative thread can never corrupt cross-thread
	// state. The multiprogrammed workloads never generate them; they exist
	// for the synchronization unit tests and for parallel-program traces.
	OpAcquire
	OpRelease
	OpBlock

	numOps
)

var opNames = [...]string{
	OpNop:     "nop",
	OpIntAlu:  "int_alu",
	OpIntMul:  "int_mul",
	OpFpAlu:   "fp_alu",
	OpFpMul:   "fp_mul",
	OpFpDiv:   "fp_div",
	OpLoad:    "load",
	OpStore:   "store",
	OpFpLoad:  "fp_load",
	OpFpStore: "fp_store",
	OpBranch:  "branch",
	OpAcquire: "acquire",
	OpRelease: "release",
	OpBlock:   "block",
}

// String returns the mnemonic for the op class.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool {
	switch o {
	case OpLoad, OpStore, OpFpLoad, OpFpStore:
		return true
	}
	return false
}

// IsLoad reports whether the op reads data memory.
func (o Op) IsLoad() bool { return o == OpLoad || o == OpFpLoad }

// IsStore reports whether the op writes data memory.
func (o Op) IsStore() bool { return o == OpStore || o == OpFpStore }

// IsFP reports whether the op consumes floating-point resources (FP issue
// queue, FP functional units, FP registers). Note that FP loads and stores
// are *not* FP in this sense: their address generation runs on the integer
// side, mirroring the paper's observation that a runahead thread can skip
// all FP computation yet still prefetch through FP memory operations.
func (o Op) IsFP() bool {
	switch o {
	case OpFpAlu, OpFpMul, OpFpDiv:
		return true
	}
	return false
}

// IsBranch reports whether the op is a control-flow instruction.
func (o Op) IsBranch() bool { return o == OpBranch }

// IsSync reports whether the op is a thread-synchronization primitive.
func (o Op) IsSync() bool {
	switch o {
	case OpAcquire, OpRelease, OpBlock:
		return true
	}
	return false
}

// Architectural register file geometry, matching Alpha: 32 integer and 32
// floating-point registers per thread context.
const (
	NumIntArchRegs = 32
	NumFPArchRegs  = 32
	// NumArchRegs is the total architectural register count per thread.
	NumArchRegs = NumIntArchRegs + NumFPArchRegs
)

// Reg identifies an architectural register within a thread context.
// Values 0..31 name integer registers; 32..63 name FP registers;
// RegNone marks an absent operand.
type Reg int8

// RegNone marks "no register" for an absent source or destination operand.
const RegNone Reg = -1

// IsInt reports whether r names an integer architectural register.
func (r Reg) IsInt() bool { return r >= 0 && r < NumIntArchRegs }

// IsFP reports whether r names a floating-point architectural register.
func (r Reg) IsFP() bool { return r >= NumIntArchRegs && r < NumArchRegs }

// String renders the register in Alpha-ish notation (r0..r31, f0..f31).
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r.IsInt():
		return fmt.Sprintf("r%d", int(r))
	case r.IsFP():
		return fmt.Sprintf("f%d", int(r)-NumIntArchRegs)
	}
	return fmt.Sprintf("reg(%d)", int(r))
}

// IntReg returns the Reg naming integer register n.
func IntReg(n int) Reg { return Reg(n) }

// FPReg returns the Reg naming floating-point register n.
func FPReg(n int) Reg { return Reg(n + NumIntArchRegs) }

// Inst is one instruction of a thread's trace. Its program-order position
// is its index in the trace, so it is not stored; everything the pipeline
// needs to model timing is precomputed by the trace generator. The fields
// are ordered widest first so an Inst packs into 24 bytes: traces are the
// bulk of a serving process's resident memory.
type Inst struct {
	// PC is the instruction's address, used by the instruction cache and
	// the branch predictor.
	PC uint64
	// Addr is the effective address for memory operations.
	Addr uint64
	// Op is the operation class.
	Op Op
	// Dst is the destination architectural register, or RegNone.
	Dst Reg
	// Src1 and Src2 are source architectural registers, or RegNone.
	Src1, Src2 Reg
	// Taken is the branch outcome for OpBranch. A taken branch's target is
	// not stored: in a generated trace it is the next instruction's PC, and
	// the pipeline never reads it.
	Taken bool
	// AddrDependsOnLoad marks a memory instruction whose effective address
	// was produced by an earlier load (pointer chasing). When the producing
	// load is INV in runahead mode the address is unknown, so no prefetch
	// can be issued. The trace generator encodes the dependence through
	// Src1 as well; this flag exists so statistics can classify MLP without
	// re-deriving the dependence chain.
	AddrDependsOnLoad bool
}

// HasDst reports whether the instruction writes a register.
func (in *Inst) HasDst() bool { return in.Dst != RegNone }

// String renders a compact human-readable form, for debug traces.
func (in *Inst) String() string {
	switch {
	case in.Op.IsMem():
		return fmt.Sprintf("%#x %s %s<-[%#x](%s)", in.PC, in.Op, in.Dst, in.Addr, in.Src1)
	case in.Op.IsBranch():
		dir := "nt"
		if in.Taken {
			dir = "t"
		}
		return fmt.Sprintf("%#x %s %s(%s)", in.PC, in.Op, dir, in.Src1)
	default:
		return fmt.Sprintf("%#x %s %s<-(%s,%s)", in.PC, in.Op, in.Dst, in.Src1, in.Src2)
	}
}

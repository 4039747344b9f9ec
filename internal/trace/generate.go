package trace

import (
	"fmt"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Options controls trace generation.
type Options struct {
	// Len is the number of instructions to generate.
	Len int
	// Seed decorrelates traces of the same benchmark (e.g. two copies of
	// art in one workload must not walk identical address sequences).
	Seed uint64
	// DataBase is the base address of the thread's data region. Threads in
	// a workload are given disjoint regions so the shared caches see real
	// per-thread footprints rather than accidental sharing.
	DataBase uint64
	// CodeBase is the base address of the thread's code region.
	CodeBase uint64
}

// DefaultLen is the default trace length. The paper simulates 300M
// instruction SimPoint intervals; our synthetic programs are stationary by
// construction, so a much shorter window measures the same steady state.
const DefaultLen = 60_000

// Normalized returns the options with all defaults applied, so that two
// Options values describing the same trace compare equal. Cache keys must
// be built from normalized options: Generate(p, o) and
// Generate(p, o.Normalized()) produce identical traces.
func (o Options) Normalized() Options {
	if o.Len == 0 {
		o.Len = DefaultLen
	}
	if o.DataBase == 0 {
		o.DataBase = 0x1000_0000
	}
	if o.CodeBase == 0 {
		o.CodeBase = 0x0040_0000
	}
	return o
}

// Trace is a generated instruction sequence for one thread context.
// Traces are immutable after generation; the simulator re-executes them in
// a loop per the FAME methodology.
//
// Cold data addresses shift by a fixed offset every trace iteration (see
// AddrAt): a short looping trace would otherwise touch a tiny, fully
// cache-resident footprint, while the 300M-instruction intervals it stands
// in for keep walking fresh memory. The shift keeps the *rate* of new-line
// touches stationary across iterations, which is the property the L2 miss
// rate (and hence the MEM classification) depends on.
type Trace struct {
	// Name is the benchmark name this trace was generated from.
	Name string
	// Class is the benchmark's ILP/MEM classification.
	Class Class

	insts []isa.Inst

	// Cold-region geometry for iteration shifting (zero for hand-built
	// traces, which then loop with fixed addresses).
	coldBase  uint64
	coldSpan  uint64
	shiftStep uint64
}

// FromInsts wraps a hand-built instruction sequence as a Trace. Tests and
// custom workloads use it; Generate is the production path.
func FromInsts(name string, class Class, insts []isa.Inst) *Trace {
	if len(insts) == 0 {
		// Only tests and hand-built workloads call FromInsts; no runtime
		// input reaches it.
		panic("trace: FromInsts with no instructions")
	}
	return &Trace{Name: name, Class: class, insts: insts}
}

// Len returns the number of instructions in one iteration of the trace.
func (t *Trace) Len() int { return len(t.insts) }

// At returns the instruction at program-order position seq. Positions wrap
// modulo Len, modelling FAME's trace re-execution. The returned pointer
// aliases internal storage and must not be mutated.
func (t *Trace) At(seq uint64) *isa.Inst {
	return &t.insts[seq%uint64(len(t.insts))]
}

// AddrAt resolves the effective address of the memory instruction at
// absolute position seq. Hot-region addresses are iteration-invariant (the
// hot set is meant to stay resident); cold addresses advance by shiftStep
// per iteration, wrapping within the cold span, so re-executions keep
// touching fresh lines at the profile's calibrated rate. The function is
// pure in seq, which runahead/flush re-execution correctness requires.
func (t *Trace) AddrAt(seq uint64) uint64 {
	in := &t.insts[seq%uint64(len(t.insts))]
	addr := in.Addr
	if t.shiftStep == 0 || t.coldSpan == 0 || addr < t.coldBase {
		return addr
	}
	iter := seq / uint64(len(t.insts))
	off := (addr - t.coldBase + iter*t.shiftStep) % t.coldSpan
	return t.coldBase + off
}

// Summary reports aggregate trace composition, used by the calibration
// tests.
type Summary struct {
	Total       int
	Loads       int
	Stores      int
	Branches    int
	FPCompute   int
	ChasedLoads int
}

// Summarize scans the trace and counts instruction classes.
func (t *Trace) Summarize() Summary {
	var s Summary
	s.Total = len(t.insts)
	for i := range t.insts {
		in := &t.insts[i]
		switch {
		case in.Op.IsLoad():
			s.Loads++
			if in.AddrDependsOnLoad {
				s.ChasedLoads++
			}
		case in.Op.IsStore():
			s.Stores++
		case in.Op.IsBranch():
			s.Branches++
		case in.Op.IsFP():
			s.FPCompute++
		}
	}
	return s
}

// generator carries the mutable state of one generation run.
type generator struct {
	p   Profile
	opt Options

	ops    *rng.Source // instruction class draws
	addr   *rng.Source // address draws
	deps   *rng.Source // dependence distance draws
	branch *rng.Source // branch outcome draws

	// Round-robin destination allocation. Reserving a few registers as the
	// never-written "far" pool guarantees that a dependence distance under
	// the rotation period always names a live value.
	nextIntDst int
	nextFPDst  int

	// recentInt/recentFP hold the destination registers of the most recent
	// producer instructions, most recent first.
	recentInt regWindow
	recentFP  regWindow

	// lastLoadDst is the destination of the most recent integer load and
	// its age in producers, for pointer-chase dependences.
	lastLoadDst    isa.Reg
	lastLoadAge    int
	haveRecentLoad bool

	// streamPos tracks each sequential stream's offset within its region.
	streamPos []uint64

	pc uint64
}

const (
	// intDstRegs is the rotation period for integer destinations: r1..r27.
	// r0 models the zero register; r28..r31 form the always-ready far pool.
	intDstLo, intDstHi = 1, 27
	fpDstLo, fpDstHi   = 0, 27
	// maxDepDistance caps dependence draws below the rotation period so a
	// named register is guaranteed to still hold its producer's value.
	maxDepDistance = 24
	// chaseMaxAge bounds how stale a load destination may be and still be
	// used as a pointer-chase base address.
	chaseMaxAge = 20
)

// regWindow is a fixed ring over the last maxDepDistance producer
// destinations, most recent first. (A slice re-built per producer with
// append([]isa.Reg{r}, ...) dominated whole-run allocation profiles.)
type regWindow struct {
	buf  [maxDepDistance]isa.Reg
	head int // index of the most recent entry
	n    int
}

// push records a new most-recent producer destination.
func (w *regWindow) push(r isa.Reg) {
	w.head--
	if w.head < 0 {
		w.head = maxDepDistance - 1
	}
	w.buf[w.head] = r
	if w.n < maxDepDistance {
		w.n++
	}
}

// at returns the d-th most recent destination (0 = newest; d < len()).
func (w *regWindow) at(d int) isa.Reg {
	return w.buf[(w.head+d)%maxDepDistance]
}

// len returns the number of recorded destinations.
func (w *regWindow) len() int { return w.n }

// Generate builds a deterministic synthetic trace for profile p. A
// non-positive length (after defaults) or an instruction mix summing past
// 1 is reported as an error: both can arrive from user-editable scenario
// files or hand-built profiles, so they must not crash a serving process.
func Generate(p Profile, opt Options) (*Trace, error) {
	opt = opt.Normalized()
	if opt.Len <= 0 {
		return nil, fmt.Errorf("trace: invalid length %d", opt.Len)
	}
	if s := p.Mix.sum(); s > 1 {
		return nil, fmt.Errorf("trace: %s instruction mix sums to %v > 1", p.Name, s)
	}
	root := rng.NewString(p.Name)
	// Mix the per-copy seed in so two copies of one benchmark diverge.
	root = rng.New(root.Uint64() ^ opt.Seed)
	g := &generator{
		p:           p,
		opt:         opt,
		ops:         root.Split(),
		addr:        root.Split(),
		deps:        root.Split(),
		branch:      root.Split(),
		nextIntDst:  intDstLo,
		nextFPDst:   fpDstLo,
		lastLoadDst: isa.RegNone,
		streamPos:   make([]uint64, max(1, p.Streams)),
		pc:          opt.CodeBase,
	}
	// Stagger stream start offsets so copies of a benchmark do not march in
	// lockstep through memory.
	for i := range g.streamPos {
		g.streamPos[i] = g.addr.Uint64n(max(1, g.coldBytes()/uint64(len(g.streamPos))))
	}

	insts := make([]isa.Inst, opt.Len)
	for i := range insts {
		g.emit(&insts[i])
	}
	cold := g.coldBytes()
	// Iteration shift applies only to footprints beyond the 1MB L2 (the
	// Table 1 constant). For resident footprints the steady state is
	// fully-warm whatever the addresses, so looping over fixed addresses
	// is already correct; for capacity-bound footprints, shifting by ~1/16
	// of the cold span per iteration keeps the new-line touch rate
	// stationary, as the real 300M-instruction interval's would be.
	const l2Bytes = 1 << 20
	var step uint64
	if p.WorkingSet > l2Bytes {
		step = (cold / 16) &^ 63
		if step == 0 {
			step = 64
		}
	}
	return &Trace{
		Name:      p.Name,
		Class:     p.Class,
		insts:     insts,
		coldBase:  opt.DataBase + p.HotBytes,
		coldSpan:  cold,
		shiftStep: step,
	}, nil
}

// MustGenerate is Generate for statically known-good profiles and options
// (tests, benchmarks, compile-time tables); it panics on error.
func MustGenerate(p Profile, opt Options) *Trace {
	t, err := Generate(p, opt)
	if err != nil {
		panic(err)
	}
	return t
}

// SizeBytes estimates the trace's resident memory footprint, used by
// byte-bounded caches to account for stored traces.
func (t *Trace) SizeBytes() int64 {
	const instBytes = int64(unsafe.Sizeof(isa.Inst{}))
	return int64(unsafe.Sizeof(Trace{})) + int64(len(t.Name)) + int64(len(t.insts))*instBytes
}

// coldBytes returns the size of the non-hot data region.
func (g *generator) coldBytes() uint64 {
	if g.p.WorkingSet <= g.p.HotBytes {
		return 64
	}
	return g.p.WorkingSet - g.p.HotBytes
}

// emit fills in the next instruction of the trace.
func (g *generator) emit(in *isa.Inst) {
	in.PC = g.pc
	in.Dst, in.Src1, in.Src2 = isa.RegNone, isa.RegNone, isa.RegNone

	// Advance the PC model: 4-byte instructions, taken branches redirect.
	next := g.pc + 4
	op := g.pickOp()
	in.Op = op
	switch {
	case op.IsLoad():
		g.emitLoad(in)
	case op.IsStore():
		g.emitStore(in)
	case op.IsBranch():
		if target := g.emitBranch(in); in.Taken {
			next = target
		}
	case op.IsFP():
		g.emitFPCompute(in)
	default:
		g.emitIntCompute(in)
	}
	g.pc = next
	if g.haveRecentLoad {
		g.lastLoadAge++
		if g.lastLoadAge > chaseMaxAge {
			g.haveRecentLoad = false
		}
	}
}

// pickOp draws an operation class from the profile mix.
func (g *generator) pickOp() isa.Op {
	v := g.ops.Float64()
	m := g.p.Mix
	for _, c := range [...]struct {
		p  float64
		op isa.Op
	}{
		{m.Load, isa.OpLoad},
		{m.Store, isa.OpStore},
		{m.FPLoad, isa.OpFpLoad},
		{m.FPStore, isa.OpFpStore},
		{m.Branch, isa.OpBranch},
		{m.IntMul, isa.OpIntMul},
		{m.FPAlu, isa.OpFpAlu},
		{m.FPMul, isa.OpFpMul},
		{m.FPDiv, isa.OpFpDiv},
	} {
		if v < c.p {
			return c.op
		}
		v -= c.p
	}
	return isa.OpIntAlu
}

// intSource picks an integer source register at a geometric dependence
// distance, or a far (always ready) register.
func (g *generator) intSource() isa.Reg {
	if g.deps.Bool(g.p.FarFrac) || g.recentInt.len() == 0 {
		return isa.IntReg(28 + g.deps.Intn(4))
	}
	d := g.deps.Geometric(g.p.DepP)
	if d >= g.recentInt.len() {
		d = g.recentInt.len() - 1
	}
	if d >= maxDepDistance {
		d = maxDepDistance - 1
	}
	return g.recentInt.at(d)
}

// fpSource picks a floating-point source register.
func (g *generator) fpSource() isa.Reg {
	if g.deps.Bool(g.p.FarFrac) || g.recentFP.len() == 0 {
		return isa.FPReg(28 + g.deps.Intn(4))
	}
	d := g.deps.Geometric(g.p.DepP)
	if d >= g.recentFP.len() {
		d = g.recentFP.len() - 1
	}
	if d >= maxDepDistance {
		d = maxDepDistance - 1
	}
	return g.recentFP.at(d)
}

// pushIntDst records an integer producer and returns its destination.
func (g *generator) pushIntDst() isa.Reg {
	r := isa.IntReg(g.nextIntDst)
	g.nextIntDst++
	if g.nextIntDst > intDstHi {
		g.nextIntDst = intDstLo
	}
	g.recentInt.push(r)
	return r
}

// pushFPDst records an FP producer and returns its destination.
func (g *generator) pushFPDst() isa.Reg {
	r := isa.FPReg(g.nextFPDst)
	g.nextFPDst++
	if g.nextFPDst > fpDstHi {
		g.nextFPDst = fpDstLo
	}
	g.recentFP.push(r)
	return r
}

// dataAddress draws an effective address per the profile's mix of hot,
// streaming and random accesses.
func (g *generator) dataAddress() uint64 {
	if g.addr.Bool(g.p.HotFrac) {
		off := g.addr.Uint64n(max(8, g.p.HotBytes)) &^ 7
		return g.opt.DataBase + off
	}
	cold := g.coldBytes()
	if g.addr.Bool(g.p.StreamFrac) && len(g.streamPos) > 0 {
		s := g.addr.Intn(len(g.streamPos))
		region := max(64, cold/uint64(len(g.streamPos)))
		pos := g.streamPos[s] % region
		g.streamPos[s] = pos + max(8, g.p.StrideBytes)
		return g.opt.DataBase + g.p.HotBytes + uint64(s)*region + pos
	}
	off := g.addr.Uint64n(max(8, cold)) &^ 7
	return g.opt.DataBase + g.p.HotBytes + off
}

func (g *generator) emitLoad(in *isa.Inst) {
	chase := g.p.ChaseFrac > 0 && g.haveRecentLoad && g.addr.Bool(g.p.ChaseFrac)
	if chase {
		// Pointer chasing constrains the *dependence* (the address comes
		// from an earlier load's result), not the locality: the node being
		// followed is hot or cold with the same distribution as any other
		// access. Dependence is what limits runahead's MLP on mcf-like
		// codes — a chased load whose producer is INV cannot prefetch.
		in.Src1 = g.lastLoadDst
		in.AddrDependsOnLoad = true
	} else {
		in.Src1 = g.inductionSource()
	}
	in.Addr = g.dataAddress()
	if in.Op == isa.OpLoad {
		in.Dst = g.pushIntDst()
		g.lastLoadDst = in.Dst
		g.lastLoadAge = 0
		g.haveRecentLoad = true
	} else { // FP load: integer base address, FP destination
		in.Dst = g.pushFPDst()
	}
}

// inductionSource picks the base-address register of a non-chased memory
// access. Real address computations overwhelmingly read induction
// variables and frame/global pointers (add-immediate chains), not loaded
// data, so most draws come from the long-lived far pool; the remainder
// read recent producers (composite index computations). This matters for
// runahead: stream addresses stay computable when loaded values are
// poisoned, which is exactly why streaming codes prefetch well under
// runahead while pointer chasers (ChaseFrac) do not.
func (g *generator) inductionSource() isa.Reg {
	if g.deps.Bool(0.85) || g.recentInt.len() == 0 {
		return isa.IntReg(28 + g.deps.Intn(4))
	}
	return g.intSource()
}

func (g *generator) emitStore(in *isa.Inst) {
	in.Src1 = g.inductionSource() // address base
	in.Addr = g.dataAddress()
	if in.Op == isa.OpStore {
		in.Src2 = g.intSource() // data
	} else {
		in.Src2 = g.fpSource() // FP data
	}
}

// emitBranch fills in a branch and returns its taken target. The target is
// drawn whether or not the branch is taken, so the branch stream's draws do
// not depend on the outcome.
func (g *generator) emitBranch(in *isa.Inst) uint64 {
	in.Src1 = g.intSource() // condition
	bias := g.branchBias(in.PC)
	in.Taken = g.branch.Bool(bias)
	return g.branchTarget(in.PC)
}

// branchBias derives a static per-PC bias: most branches are strongly
// biased (predictable), the rest hover near 50/50.
func (g *generator) branchBias(pc uint64) float64 {
	h := rng.New(pc ^ g.staticSeed())
	if h.Bool(g.p.StrongBiasFrac) {
		// Strongly biased branches train to ~97% accuracy. The residual
		// mispredictions matter: a mispredicted branch whose condition
		// depends on an outstanding miss serializes the baseline window —
		// and runahead mode folds such branches as INV and sails past
		// them, one of runahead execution's documented benefits.
		if h.Bool(g.p.TakenRate) {
			return 0.97
		}
		return 0.03
	}
	return 0.3 + 0.4*h.Float64()
}

// branchTarget derives a static per-PC target within the code footprint,
// with a small indirect component that scatters.
func (g *generator) branchTarget(pc uint64) uint64 {
	h := rng.New(pc ^ g.staticSeed() ^ 0xb5ad4eceda1ce2a9)
	span := max(64, g.p.CodeBytes)
	if h.Bool(0.05) {
		// Indirect-ish branch: dynamic target draw.
		return g.opt.CodeBase + (g.branch.Uint64n(span) &^ 31)
	}
	return g.opt.CodeBase + (h.Uint64n(span) &^ 31)
}

// staticSeed is the per-benchmark (not per-copy) seed used for static
// program structure like branch biases and targets: both copies of a
// benchmark share a binary, so their static structure matches even though
// their dynamic draws differ.
func (g *generator) staticSeed() uint64 {
	return rng.NewString(g.p.Name).Uint64()
}

func (g *generator) emitIntCompute(in *isa.Inst) {
	in.Src1 = g.intSource()
	in.Src2 = g.intSource()
	in.Dst = g.pushIntDst()
}

func (g *generator) emitFPCompute(in *isa.Inst) {
	in.Src1 = g.fpSource()
	in.Src2 = g.fpSource()
	in.Dst = g.pushFPDst()
}

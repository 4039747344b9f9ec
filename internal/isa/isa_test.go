package isa

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpClassPredicatesDisjoint(t *testing.T) {
	// Every op must belong to a coherent set of classes; in particular an op
	// cannot be both FP-compute and memory, or both branch and memory.
	for o := Op(0); o < numOps; o++ {
		if o.IsFP() && o.IsMem() {
			t.Errorf("%v is both FP and Mem", o)
		}
		if o.IsBranch() && o.IsMem() {
			t.Errorf("%v is both Branch and Mem", o)
		}
		if o.IsSync() && (o.IsMem() || o.IsFP() || o.IsBranch()) {
			t.Errorf("%v is Sync and something else", o)
		}
		if o.IsLoad() && o.IsStore() {
			t.Errorf("%v is both Load and Store", o)
		}
		if (o.IsLoad() || o.IsStore()) && !o.IsMem() {
			t.Errorf("%v is Load/Store but not Mem", o)
		}
	}
}

func TestOpMemClassification(t *testing.T) {
	cases := []struct {
		op          Op
		mem, ld, st bool
	}{
		{OpLoad, true, true, false},
		{OpStore, true, false, true},
		{OpFpLoad, true, true, false},
		{OpFpStore, true, false, true},
		{OpIntAlu, false, false, false},
		{OpFpAlu, false, false, false},
		{OpBranch, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsMem() != c.mem || c.op.IsLoad() != c.ld || c.op.IsStore() != c.st {
			t.Errorf("%v: mem/load/store = %v/%v/%v, want %v/%v/%v",
				c.op, c.op.IsMem(), c.op.IsLoad(), c.op.IsStore(), c.mem, c.ld, c.st)
		}
	}
}

func TestFPLoadsAreNotFPResources(t *testing.T) {
	// Paper §3.3: FP loads/stores compute addresses on the integer side, so
	// the runahead FP-invalidation must NOT treat them as FP ops.
	if OpFpLoad.IsFP() || OpFpStore.IsFP() {
		t.Fatal("FP memory ops must not be classified as FP-resource ops")
	}
	if !OpFpAlu.IsFP() || !OpFpMul.IsFP() || !OpFpDiv.IsFP() {
		t.Fatal("FP arithmetic must be classified as FP-resource ops")
	}
}

func TestOpStrings(t *testing.T) {
	seen := map[string]Op{}
	for o := Op(0); o < numOps; o++ {
		s := o.String()
		if s == "" {
			t.Fatalf("op %d has empty name", o)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ops %v and %v share name %q", prev, o, s)
		}
		seen[s] = o
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Fatalf("out-of-range op name = %q", got)
	}
}

func TestRegClassification(t *testing.T) {
	for n := 0; n < NumIntArchRegs; n++ {
		r := IntReg(n)
		if !r.IsInt() || r.IsFP() {
			t.Fatalf("IntReg(%d) misclassified", n)
		}
	}
	for n := 0; n < NumFPArchRegs; n++ {
		r := FPReg(n)
		if r.IsInt() || !r.IsFP() {
			t.Fatalf("FPReg(%d) misclassified", n)
		}
	}
	if RegNone.IsInt() || RegNone.IsFP() {
		t.Fatal("RegNone misclassified")
	}
	if r := Reg(NumArchRegs); r.IsInt() || r.IsFP() {
		t.Fatal("out-of-range reg claims a register class")
	}
}

func TestRegStrings(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{IntReg(0), "r0"},
		{IntReg(31), "r31"},
		{FPReg(0), "f0"},
		{FPReg(31), "f31"},
		{RegNone, "-"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		i := int(n % NumIntArchRegs)
		return IntReg(i).IsInt() && FPReg(i).IsFP() && IntReg(i) != FPReg(i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInstHasDst(t *testing.T) {
	in := Inst{Dst: RegNone}
	if in.HasDst() {
		t.Fatal("RegNone dst reported as present")
	}
	in.Dst = IntReg(3)
	if !in.HasDst() {
		t.Fatal("valid dst reported as absent")
	}
}

func TestInstStringForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{PC: 0x400, Op: OpLoad, Dst: IntReg(1), Src1: IntReg(2), Addr: 0x1000}, "0x400 load r1<-[0x1000](r2)"},
		{Inst{PC: 0x404, Op: OpBranch, Taken: true, Dst: RegNone, Src1: IntReg(3)}, "0x404 branch t(r3)"},
		{Inst{PC: 0x408, Op: OpBranch, Dst: RegNone, Src1: IntReg(3)}, "0x408 branch nt(r3)"},
		{Inst{PC: 0x40c, Op: OpIntAlu, Dst: IntReg(4), Src1: IntReg(5), Src2: FPReg(6)}, "0x40c int_alu r4<-(r5,f6)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestInstLayout pins the packed instruction size. Traces are most of a
// serving process's resident memory, so growing Inst (a new field, a wider
// Reg, or a field order that adds padding) costs memory in every cached
// trace and must be a deliberate change.
func TestInstLayout(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Inst{}) = %d, want 24", got)
	}
}

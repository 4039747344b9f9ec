package rescontrol

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

func memTrace(n int) *trace.Trace {
	insts := make([]isa.Inst, n)
	for i := range insts {
		if i%8 == 0 {
			insts[i] = isa.Inst{
				PC: 0x400000 + uint64(4*(i%256)), Op: isa.OpLoad,
				Dst: isa.IntReg(1 + (i/8)%8), Src1: isa.IntReg(28),
				Addr: 0x10_0000_0000 + uint64(i)*4096,
			}
		} else {
			insts[i] = isa.Inst{
				PC: 0x400000 + uint64(4*(i%256)), Op: isa.OpIntAlu,
				Dst: isa.IntReg(10 + i%10), Src1: isa.IntReg(1 + (i/8)%8),
				Src2: isa.IntReg(29),
			}
		}
	}
	return trace.FromInsts("mem", trace.ClassMEM, insts)
}

func ilpTrace(n int) *trace.Trace {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC: 0x400000 + uint64(4*(i%256)), Op: isa.OpIntAlu,
			Dst: isa.IntReg(1 + i%20), Src1: isa.IntReg(28), Src2: isa.IntReg(29),
		}
	}
	return trace.FromInsts("ilp", trace.ClassILP, insts)
}

func runCore(t *testing.T, pol pipeline.Policy, traces []*trace.Trace, cycles int) *pipeline.Core {
	t.Helper()
	c, err := pipeline.New(pipeline.DefaultConfig(), traces, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	c.SetParanoid(true)
	for i := 0; i < cycles; i++ {
		c.Step()
	}
	return c
}

func TestDCRACapsHog(t *testing.T) {
	// Under DCRA, a MEM thread must not monopolize the INT issue queue:
	// the ILP partner should do better than under plain ICOUNT.
	traces := func() []*trace.Trace {
		return []*trace.Trace{ilpTrace(1000), memTrace(4000)}
	}
	icount := runCore(t, pipeline.ICount{}, traces(), 15000)
	dcra := runCore(t, DCRA{}, traces(), 15000)
	if dcra.Committed(0) <= icount.Committed(0) {
		t.Fatalf("ILP partner under DCRA (%d) not better than ICOUNT (%d)",
			dcra.Committed(0), icount.Committed(0))
	}
}

func TestDCRASlowThreadGetsLargerShare(t *testing.T) {
	d := DCRA{}
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{memTrace(4000), ilpTrace(500)}, d)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	for i := 0; i < 5000; i++ {
		c.Step()
		if c.PendingL2Miss(0) && !c.PendingL2Miss(1) {
			w, total := d.weights(c)
			if w[0] != slowWeight || w[1] != 1 {
				t.Fatalf("weights = %v", w[:2])
			}
			if total != slowWeight+1 {
				t.Fatalf("total = %d", total)
			}
			return
		}
	}
	t.Fatal("never saw slow/fast classification split")
}

func TestDCRABothProgress(t *testing.T) {
	c := runCore(t, DCRA{}, []*trace.Trace{memTrace(4000), memTrace(4000)}, 20000)
	if c.Committed(0) == 0 || c.Committed(1) == 0 {
		t.Fatal("starvation under DCRA")
	}
}

func TestHillClimbingSharesEvolve(t *testing.T) {
	h := NewHillClimbing()
	h.epochCycles = 256 // fast epochs for the test
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{ilpTrace(1000), memTrace(4000)}, h)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	for i := 0; i < 20000; i++ {
		c.Step()
	}
	shares := h.shares
	var sum float64
	for _, s := range shares {
		if s < 0.04 {
			t.Fatalf("share collapsed: %v", shares)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("shares do not sum to 1: %v (sum %v)", shares, sum)
	}
	// The ILP thread converts resources into throughput; hill climbing
	// should not leave the partition at exactly uniform.
	if math.Abs(shares[0]-0.5) < 1e-9 && math.Abs(shares[1]-0.5) < 1e-9 {
		t.Fatal("partition never moved")
	}
}

func TestHillClimbingBothProgress(t *testing.T) {
	h := NewHillClimbing()
	h.epochCycles = 512
	c := runCore(t, h, []*trace.Trace{memTrace(4000), ilpTrace(1000)}, 20000)
	if c.Committed(0) == 0 || c.Committed(1) == 0 {
		t.Fatal("starvation under hill climbing")
	}
}

func TestHillClimbingSingleThread(t *testing.T) {
	// Degenerate single-thread case must not divide by zero or stall.
	h := NewHillClimbing()
	h.epochCycles = 256
	c := runCore(t, h, []*trace.Trace{ilpTrace(1000)}, 5000)
	if c.Committed(0) == 0 {
		t.Fatal("single thread starved under hill climbing")
	}
}

func TestHillClimbingImprovesOverICountForMix(t *testing.T) {
	// Dynamic partitioning should beat plain ICOUNT for a MIX workload in
	// total throughput (the paper's Figure 2 ordering).
	traces := func() []*trace.Trace {
		return []*trace.Trace{ilpTrace(1000), memTrace(4000)}
	}
	icount := runCore(t, pipeline.ICount{}, traces(), 30000)
	h := NewHillClimbing()
	h.epochCycles = 2048
	hill := runCore(t, h, traces(), 30000)
	ic, hc := icount.CommittedTotal(), hill.CommittedTotal()
	if float64(hc) < 0.95*float64(ic) {
		t.Fatalf("hill climbing total (%d) well below ICOUNT (%d)", hc, ic)
	}
}

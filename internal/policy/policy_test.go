package policy

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// memTrace builds a miss-heavy trace with dependent work (the STALL/FLUSH
// trigger pattern).
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

// ilpTrace builds an independent ALU trace.
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

func TestRoundRobinRotates(t *testing.T) {
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{ilpTrace(100), ilpTrace(100), ilpTrace(100)}, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	a := RoundRobin{}.FetchPriority(c, nil)
	c.Step()
	b := RoundRobin{}.FetchPriority(c, nil)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("priority lengths %d/%d", len(a), len(b))
	}
	if a[0] == b[0] {
		t.Fatal("round robin did not rotate")
	}
}

// TestRoundRobinLargeCycle is the regression test for the uint64→int
// truncation in FetchPriority: past 2^63 the old int(c.Cycle()) % n went
// negative, emitting out-of-range (negative) thread indices. The
// priority list must stay a permutation of the thread ids at any cycle
// count, and consecutive cycles must still rotate by one.
func TestRoundRobinLargeCycle(t *testing.T) {
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{ilpTrace(100), ilpTrace(100), ilpTrace(100)}, RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cycle := range []uint64{1<<63 + 5, math.MaxUint64 - 1, math.MaxUint64} {
		c.SetCycle(cycle)
		order := RoundRobin{}.FetchPriority(c, nil)
		if len(order) != 3 {
			t.Fatalf("cycle %d: priority length %d, want 3", cycle, len(order))
		}
		seen := map[int]bool{}
		for _, tid := range order {
			if tid < 0 || tid >= 3 {
				t.Fatalf("cycle %d: out-of-range thread index %d in %v", cycle, tid, order)
			}
			seen[tid] = true
		}
		if len(seen) != 3 {
			t.Fatalf("cycle %d: priority %v is not a permutation", cycle, order)
		}
		if want := int(cycle % 3); order[0] != want {
			t.Errorf("cycle %d: rotation starts at %d, want %d", cycle, order[0], want)
		}
	}
}

// TestStepLargeCycle is the same regression for the core's own rotating
// stages: dispatch and commit picked their first thread with
// (int(now)+k)%n, which past 2^63 indexed threads[-2] and panicked. A
// 3-thread machine must step through cycle counts past 2^63 and up to the
// top of the range, holding its invariants and committing for every
// thread.
func TestStepLargeCycle(t *testing.T) {
	for _, start := range []uint64{1<<63 + 5, math.MaxUint64 - 49} {
		c, err := pipeline.New(pipeline.DefaultConfig(),
			[]*trace.Trace{ilpTrace(100), ilpTrace(100), ilpTrace(100)}, RoundRobin{})
		if err != nil {
			t.Fatal(err)
		}
		c.WarmupICache()
		c.SetParanoid(true)
		c.SetCycle(start)
		for i := 0; i < 50; i++ {
			c.Step()
		}
		for tid := 0; tid < 3; tid++ {
			if c.Committed(tid) == 0 {
				t.Errorf("start %d: thread %d committed nothing in 50 cycles", start, tid)
			}
		}
	}
}

func TestRoundRobinNoStarvation(t *testing.T) {
	c := runCore(t, RoundRobin{}, []*trace.Trace{ilpTrace(500), ilpTrace(500)}, 3000)
	if c.Committed(0) == 0 || c.Committed(1) == 0 {
		t.Fatal("starvation under round robin")
	}
}

func TestStallGatesMissingThread(t *testing.T) {
	// Under STALL, the MEM thread must stop fetching while its miss is
	// outstanding; the ILP partner must do better than under plain ICOUNT.
	traces := func() []*trace.Trace {
		return []*trace.Trace{ilpTrace(1000), memTrace(4000)}
	}
	icount := runCore(t, pipeline.ICount{}, traces(), 15000)
	stall := runCore(t, Stall{}, traces(), 15000)
	if stall.Committed(0) <= icount.Committed(0) {
		t.Fatalf("ILP partner under STALL (%d) not better than ICOUNT (%d)",
			stall.Committed(0), icount.Committed(0))
	}
}

func TestStallFiltersPriorityList(t *testing.T) {
	c, err := pipeline.New(pipeline.DefaultConfig(),
		[]*trace.Trace{memTrace(2000), ilpTrace(500)}, Stall{})
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	// Run until the MEM thread has a pending miss, then check the filter.
	for i := 0; i < 5000; i++ {
		c.Step()
		if c.PendingL2Miss(0) {
			order := (Stall{}).FetchPriority(c, nil)
			for _, tid := range order {
				if tid == 0 {
					t.Fatal("thread with pending miss still in fetch list")
				}
			}
			return
		}
	}
	t.Fatal("MEM thread never had a pending miss")
}

func TestFlushReleasesAndRestarts(t *testing.T) {
	// FLUSH must (a) run correctly under paranoid checks, (b) squash work
	// (visible as squashed instructions), and (c) beat ICOUNT for the ILP
	// partner.
	traces := func() []*trace.Trace {
		return []*trace.Trace{ilpTrace(1000), memTrace(4000)}
	}
	icount := runCore(t, pipeline.ICount{}, traces(), 15000)
	flush := runCore(t, Flush{}, traces(), 15000)
	if flush.Stats(1).Squashed == 0 {
		t.Fatal("FLUSH squashed nothing on a missing thread")
	}
	if flush.Committed(0) <= icount.Committed(0) {
		t.Fatalf("ILP partner under FLUSH (%d) not better than ICOUNT (%d)",
			flush.Committed(0), icount.Committed(0))
	}
}

func TestFlushBeatsStallForPartner(t *testing.T) {
	// The paper's Figure 1 ordering (throughput): FLUSH > STALL for mixed
	// workloads, because held resources under STALL still choke partners.
	traces := func() []*trace.Trace {
		return []*trace.Trace{ilpTrace(1000), memTrace(4000)}
	}
	stall := runCore(t, Stall{}, traces(), 20000)
	flush := runCore(t, Flush{}, traces(), 20000)
	st := stall.CommittedTotal()
	fl := flush.CommittedTotal()
	if float64(fl) < 0.9*float64(st) {
		t.Fatalf("FLUSH total (%d) far below STALL (%d)", fl, st)
	}
}

func TestFlushedThreadStillProgresses(t *testing.T) {
	c := runCore(t, Flush{}, []*trace.Trace{memTrace(2000)}, 30000)
	if c.Committed(0) == 0 {
		t.Fatal("flushed thread starved")
	}
}

package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// aluTrace builds a trivial independent-ALU trace.
func aluTrace(n int) *trace.Trace {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:   0x400000 + uint64(4*(i%256)),
			Op:   isa.OpIntAlu,
			Dst:  isa.IntReg(1 + i%20),
			Src1: isa.IntReg(28),
			Src2: isa.IntReg(29),
		}
	}
	return trace.FromInsts("alu", trace.ClassILP, insts)
}

// chainTrace builds a fully serial dependence chain.
func chainTrace(n int) *trace.Trace {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:   0x400000 + uint64(4*(i%256)),
			Op:   isa.OpIntAlu,
			Dst:  isa.IntReg(1),
			Src1: isa.IntReg(1),
			Src2: isa.IntReg(1),
		}
	}
	return trace.FromInsts("chain", trace.ClassILP, insts)
}

// missLoadTrace interleaves loads that miss everywhere (distinct lines
// across a huge footprint) with dependent ALU work.
func missLoadTrace(n int, dependent bool) *trace.Trace {
	insts := make([]isa.Inst, n)
	for i := range insts {
		if i%8 == 0 {
			insts[i] = isa.Inst{
				PC:   0x400000 + uint64(4*(i%256)),
				Op:   isa.OpLoad,
				Dst:  isa.IntReg(1 + (i/8)%8),
				Src1: isa.IntReg(28),
				Addr: 0x10_0000_0000 + uint64(i)*4096, // all distinct lines
			}
		} else {
			src := isa.IntReg(28)
			if dependent {
				src = isa.IntReg(1 + (i/8)%8) // depends on the last load
			}
			insts[i] = isa.Inst{
				PC:   0x400000 + uint64(4*(i%256)),
				Op:   isa.OpIntAlu,
				Dst:  isa.IntReg(10 + i%10),
				Src1: src,
				Src2: isa.IntReg(29),
			}
		}
	}
	return trace.FromInsts("missload", trace.ClassMEM, insts)
}

func run(t *testing.T, c *Core, cycles int) {
	t.Helper()
	c.SetParanoid(true)
	for i := 0; i < cycles; i++ {
		c.Step()
	}
}

func mustNew(t *testing.T, cfg Config, traces []*trace.Trace, pol Policy) *Core {
	t.Helper()
	c, err := New(cfg, traces, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	return c
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(DefaultConfig(), nil, nil); err == nil {
		t.Fatal("no threads accepted")
	}
	bad := DefaultConfig()
	bad.Width = 0
	if _, err := New(bad, []*trace.Trace{aluTrace(10)}, nil); err == nil {
		t.Fatal("zero width accepted")
	}
	nine := make([]*trace.Trace, 9)
	for i := range nine {
		nine[i] = aluTrace(10)
	}
	if _, err := New(DefaultConfig(), nine, nil); err == nil {
		t.Fatal("9 threads accepted")
	}
}

func TestSingleThreadALUThroughput(t *testing.T) {
	// Independent single-cycle ALU ops: IPC should approach the INT FU
	// count (6) once warm, and must certainly exceed 3.
	c := mustNew(t, DefaultConfig(), []*trace.Trace{aluTrace(1000)}, nil)
	run(t, c, 3000)
	ipc := float64(c.Committed(0)) / 3000
	if ipc < 3.0 {
		t.Fatalf("independent-ALU IPC = %.2f, want > 3", ipc)
	}
	if ipc > 6.5 {
		t.Fatalf("IPC = %.2f exceeds INT FU bandwidth", ipc)
	}
}

func TestSerialChainIPCIsOne(t *testing.T) {
	// A fully serial chain can never exceed IPC 1 and should be close to it.
	c := mustNew(t, DefaultConfig(), []*trace.Trace{chainTrace(1000)}, nil)
	run(t, c, 4000)
	ipc := float64(c.Committed(0)) / 4000
	if ipc > 1.01 {
		t.Fatalf("serial chain IPC = %.2f > 1", ipc)
	}
	if ipc < 0.5 {
		t.Fatalf("serial chain IPC = %.2f unreasonably low", ipc)
	}
}

func TestCommitIsInProgramOrder(t *testing.T) {
	// With paranoid checks on, committed counts must be monotone and the
	// machine must drain without leaks; program order is enforced
	// structurally (per-thread ROB FIFO), so committing at all is the test.
	c := mustNew(t, DefaultConfig(), []*trace.Trace{missLoadTrace(256, true)}, nil)
	prev := uint64(0)
	c.SetParanoid(true)
	for i := 0; i < 5000; i++ {
		c.Step()
		got := c.Committed(0)
		if got < prev {
			t.Fatal("committed count went backwards")
		}
		prev = got
	}
	if prev == 0 {
		t.Fatal("nothing committed in 5000 cycles")
	}
}

func TestL2MissBlocksWithoutRunahead(t *testing.T) {
	// Without RaT, a miss-every-8-instructions trace with dependent ALU
	// work commits slowly: each miss costs ~423 cycles and the window
	// (512) covers only a few misses at a time.
	c := mustNew(t, DefaultConfig(), []*trace.Trace{missLoadTrace(2000, true)}, nil)
	run(t, c, 20000)
	ipc := float64(c.Committed(0)) / 20000
	if ipc > 1.0 {
		t.Fatalf("memory-bound IPC = %.2f, expected <1 under 400-cycle misses", ipc)
	}
	if c.Stats(0).L2MissLoads == 0 {
		t.Fatal("no L2 misses recorded")
	}
}

func TestRunaheadEntersAndExits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{missLoadTrace(2000, false)}, nil)
	run(t, c, 20000)
	st := c.Stats(0)
	if st.RunaheadEpisodes == 0 {
		t.Fatal("no runahead episodes on a miss-heavy trace")
	}
	if st.PseudoRetired == 0 {
		t.Fatal("no pseudo-retired instructions")
	}
	if st.CyclesInRunahead == 0 {
		t.Fatal("no cycles in runahead")
	}
	if c.InRunahead(0) {
		// The thread may legitimately end mid-episode, but with 20000
		// cycles and ~423-cycle episodes it should usually be out; accept
		// either, just ensure mode flips happened.
		t.Log("thread still in runahead at end (acceptable)")
	}
	if st.PrefetchesIssued == 0 {
		t.Fatal("runahead issued no prefetches on independent misses")
	}
}

func TestRunaheadImprovesDependentMissThroughput(t *testing.T) {
	// The headline mechanism. When miss-dependent work clogs the issue
	// queues (every real program), the baseline window covers only a few
	// concurrent misses; a runahead thread pseudo-retires the clog and
	// prefetches far ahead. Require a solid speedup.
	base := mustNew(t, DefaultConfig(), []*trace.Trace{missLoadTrace(4000, true)}, nil)
	run(t, base, 30000)

	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	rat := mustNew(t, cfg, []*trace.Trace{missLoadTrace(4000, true)}, nil)
	run(t, rat, 30000)

	b, r := base.Committed(0), rat.Committed(0)
	if float64(r) < 1.5*float64(b) {
		t.Fatalf("runahead speedup %.2fx (base %d, RaT %d), want >= 1.5x",
			float64(r)/float64(b), b, r)
	}
}

func TestRunaheadHarmlessOnIndependentMisses(t *testing.T) {
	// With fully independent misses, the 512-entry window already extracts
	// all the MLP; runahead must not catastrophically hurt (cf. Figure 4's
	// "overhead" result: small worst-case interference).
	base := mustNew(t, DefaultConfig(), []*trace.Trace{missLoadTrace(4000, false)}, nil)
	run(t, base, 30000)

	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	rat := mustNew(t, cfg, []*trace.Trace{missLoadTrace(4000, false)}, nil)
	run(t, rat, 30000)

	b, r := float64(base.Committed(0)), float64(rat.Committed(0))
	if r < 0.6*b {
		t.Fatalf("runahead lost %.0f%% on independent misses (base %v, RaT %v)",
			100*(1-r/b), b, r)
	}
}

func TestRunaheadNoPrefetchDoesNotPrefetch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	cfg.Runahead.Prefetch = false
	c := mustNew(t, cfg, []*trace.Trace{missLoadTrace(2000, false)}, nil)
	run(t, c, 20000)
	st := c.Stats(0)
	if st.RunaheadEpisodes == 0 {
		t.Fatal("no episodes in no-prefetch mode")
	}
	if st.PrefetchesIssued != 0 {
		t.Fatal("no-prefetch mode issued prefetches")
	}
	if c.hier.PrefetchIssue != 0 {
		t.Fatal("hierarchy saw prefetches in no-prefetch mode")
	}
}

func TestRunaheadSuppressionAfterNoPrefetch(t *testing.T) {
	// In no-prefetch mode, loads invalidated during an episode must not
	// re-trigger runahead after recovery: episode count should be well
	// below the L2-miss-load count.
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	cfg.Runahead.Prefetch = false
	c := mustNew(t, cfg, []*trace.Trace{missLoadTrace(2000, false)}, nil)
	run(t, c, 30000)
	st := c.Stats(0)
	episodes := st.RunaheadEpisodes
	misses := st.L2MissLoads
	if episodes == 0 || misses == 0 {
		t.Fatalf("degenerate run: episodes=%d misses=%d", episodes, misses)
	}
	if episodes > misses {
		t.Fatalf("more episodes (%d) than misses (%d)", episodes, misses)
	}
}

func TestTwoThreadsShareMachine(t *testing.T) {
	c := mustNew(t, DefaultConfig(), []*trace.Trace{aluTrace(1000), aluTrace(1000)}, nil)
	run(t, c, 3000)
	if c.Committed(0) == 0 || c.Committed(1) == 0 {
		t.Fatalf("starvation: committed %d / %d", c.Committed(0), c.Committed(1))
	}
	// Two identical threads under ICOUNT should commit within 20% of each
	// other.
	a, b := float64(c.Committed(0)), float64(c.Committed(1))
	if a/b > 1.2 || b/a > 1.2 {
		t.Fatalf("identical threads diverged: %v vs %v", a, b)
	}
}

func TestMemBoundThreadDegradesILPPartner(t *testing.T) {
	// The paper's motivating pathology: an ILP thread paired with a
	// MEM-bound thread under plain ICOUNT loses throughput versus running
	// alone, because the MEM thread clogs shared resources.
	alone := mustNew(t, DefaultConfig(), []*trace.Trace{aluTrace(1000)}, nil)
	run(t, alone, 10000)

	paired := mustNew(t, DefaultConfig(),
		[]*trace.Trace{aluTrace(1000), missLoadTrace(4000, true)}, nil)
	run(t, paired, 10000)

	soloIPC := float64(alone.Committed(0)) / 10000
	pairIPC := float64(paired.Committed(0)) / 10000
	if pairIPC >= soloIPC {
		t.Fatalf("ILP thread unaffected by MEM partner: solo %.2f, paired %.2f",
			soloIPC, pairIPC)
	}
}

func TestRunaheadProtectsILPPartner(t *testing.T) {
	// With RaT, the MEM thread pseudo-retires instead of clogging; the ILP
	// partner must do better than under plain ICOUNT.
	mk := func(ra bool) *Core {
		cfg := DefaultConfig()
		if ra {
			cfg.Runahead = runahead.Default()
		}
		return mustNew(t, cfg,
			[]*trace.Trace{aluTrace(1000), missLoadTrace(4000, true)}, nil)
	}
	base, rat := mk(false), mk(true)
	run(t, base, 15000)
	run(t, rat, 15000)
	if rat.Committed(0) <= base.Committed(0) {
		t.Fatalf("ILP partner: ICOUNT %d vs RaT %d, want RaT better",
			base.Committed(0), rat.Committed(0))
	}
}

func TestFlushAfterReleasesResources(t *testing.T) {
	c := mustNew(t, DefaultConfig(), []*trace.Trace{missLoadTrace(512, true)}, nil)
	c.SetParanoid(true)
	// Run until the thread has a pending L2 miss and a deep window.
	var ld *DynInst
	for i := 0; i < 5000 && ld == nil; i++ {
		c.Step()
		th := c.threads[0]
		if th.rob.len() > 50 {
			for j := 0; j < th.rob.len(); j++ {
				if di := th.rob.at(j); di.isL2Miss && !di.completed {
					ld = di
					break
				}
			}
		}
	}
	if ld == nil {
		t.Fatal("never found an in-flight L2 miss with a deep window")
	}
	before := c.ROBOccupancy(0)
	c.FlushAfter(ld)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after flush: %v", err)
	}
	after := c.ROBOccupancy(0)
	if after >= before {
		t.Fatalf("flush freed nothing: %d -> %d", before, after)
	}
	// The machine must continue to run and commit.
	for i := 0; i < 10000; i++ {
		c.Step()
	}
	if c.Committed(0) == 0 {
		t.Fatal("no commits after flush")
	}
}

func TestFPInvalidationSkipsFPResources(t *testing.T) {
	// A runahead thread with FP arithmetic: with InvalidateFP, FP compute
	// must fold at decode (no FP executions during runahead).
	n := 2000
	insts := make([]isa.Inst, n)
	for i := range insts {
		switch i % 8 {
		case 0:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpLoad,
				Dst: isa.IntReg(1), Src1: isa.IntReg(28),
				Addr: 0x20_0000_0000 + uint64(i)*4096}
		case 1, 2, 3:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpFpAlu,
				Dst: isa.FPReg(1 + i%8), Src1: isa.FPReg(28), Src2: isa.FPReg(29)}
		default:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpIntAlu,
				Dst: isa.IntReg(2 + i%8), Src1: isa.IntReg(28), Src2: isa.IntReg(29)}
		}
	}
	tr := trace.FromInsts("fpmix", trace.ClassMEM, insts)

	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	run(t, c, 20000)
	st := c.Stats(0)
	if st.RunaheadEpisodes == 0 {
		t.Fatal("no runahead")
	}
	if st.Folded == 0 {
		t.Fatal("FP invalidation folded nothing")
	}
}

func TestSyncOpsIgnoredInRunahead(t *testing.T) {
	n := 1000
	insts := make([]isa.Inst, n)
	for i := range insts {
		switch i % 8 {
		case 0:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpLoad,
				Dst: isa.IntReg(1), Src1: isa.IntReg(28),
				Addr: 0x30_0000_0000 + uint64(i)*4096}
		case 1:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpAcquire, Src1: isa.IntReg(28)}
		case 2:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpRelease, Src1: isa.IntReg(28)}
		default:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpIntAlu,
				Dst: isa.IntReg(2 + i%8), Src1: isa.IntReg(28), Src2: isa.IntReg(29)}
		}
	}
	tr := trace.FromInsts("sync", trace.ClassMEM, insts)
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	run(t, c, 15000)
	if c.Stats(0).RunaheadEpisodes == 0 {
		t.Fatal("no runahead on sync trace")
	}
	// Sync ops execute normally outside runahead and are ignored inside;
	// either way the machine must make progress and hold invariants.
	if c.Committed(0) == 0 {
		t.Fatal("no commits")
	}
}

func TestRegistersDrainAfterRun(t *testing.T) {
	// After enough cycles with fetch stopped (by exhausting trace supply we
	// cannot — traces loop — so instead check a bounded property): register
	// occupancy never exceeds file sizes and invariants hold under mixed
	// runahead workloads.
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{
		missLoadTrace(2000, true),
		aluTrace(500),
	}, nil)
	c.SetParanoid(true)
	for i := 0; i < 10000; i++ {
		c.Step()
	}
	if c.IntRegsHeld(0)+c.FPRegsHeld(0)+c.IntRegsHeld(1)+c.FPRegsHeld(1) > cfg.IntRegs+cfg.FPRegs {
		t.Fatal("register occupancy exceeds file sizes")
	}
}

func TestSmallRegisterFileStillWorks(t *testing.T) {
	// Figure 6's extreme point: 64 INT + 64 FP registers with multiple
	// threads must run correctly (slower, never deadlocked).
	cfg := DefaultConfig()
	cfg.IntRegs, cfg.FPRegs = 64, 64
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{
		missLoadTrace(1000, true),
		aluTrace(500),
		aluTrace(500),
		missLoadTrace(1000, false),
	}, nil)
	run(t, c, 15000)
	for tid := 0; tid < 4; tid++ {
		if c.Committed(tid) == 0 {
			t.Fatalf("thread %d starved with small register file", tid)
		}
	}
}

func TestGeneratedTracesIntegration(t *testing.T) {
	// End-to-end: real generated benchmarks, RaT on, paranoid checks.
	mcf := trace.MustGenerate(trace.MustLookup("mcf"), trace.Options{Len: 4000, Seed: 1})
	gzip := trace.MustGenerate(trace.MustLookup("gzip"), trace.Options{Len: 4000, Seed: 2,
		DataBase: 0x8000_0000, CodeBase: 0x0200_0000})
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{mcf, gzip}, nil)
	run(t, c, 20000)
	if c.Committed(0) == 0 || c.Committed(1) == 0 {
		t.Fatalf("starvation: %d / %d", c.Committed(0), c.Committed(1))
	}
	if c.Stats(0).RunaheadEpisodes == 0 {
		t.Fatal("mcf never entered runahead")
	}
}

func TestBranchMispredictionsResolve(t *testing.T) {
	// A trace with deliberately unpredictable branches must still make
	// progress, and mispredictions must be recorded.
	n := 2000
	insts := make([]isa.Inst, n)
	for i := range insts {
		if i%4 == 3 {
			taken := (i/4)%3 == 0 // period-3 pattern over one PC: hard
			insts[i] = isa.Inst{PC: 0x1000, Op: isa.OpBranch,
				Src1: isa.IntReg(28), Taken: taken}
		} else {
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpIntAlu,
				Dst: isa.IntReg(1 + i%20), Src1: isa.IntReg(28), Src2: isa.IntReg(29)}
		}
	}
	tr := trace.FromInsts("branchy", trace.ClassILP, insts)
	c := mustNew(t, DefaultConfig(), []*trace.Trace{tr}, nil)
	run(t, c, 10000)
	st := c.Stats(0)
	if st.BranchResolved == 0 {
		t.Fatal("no branches resolved")
	}
	if st.BranchMispredicted == 0 {
		t.Fatal("adversarial pattern never mispredicted")
	}
	if c.Committed(0) == 0 {
		t.Fatal("no commits")
	}
}

func TestICountPolicyBasics(t *testing.T) {
	var p ICount
	c := mustNew(t, DefaultConfig(), []*trace.Trace{aluTrace(100), aluTrace(100)}, p)
	run(t, c, 100)
	buf := p.FetchPriority(c, nil)
	if len(buf) != 2 {
		t.Fatalf("priority list has %d entries", len(buf))
	}
	if !p.CanDispatch(c, 0) {
		t.Fatal("ICOUNT must not gate dispatch")
	}
}

func TestRunaheadCacheAblationRuns(t *testing.T) {
	// Store→load communication through the runahead cache; per the paper
	// the performance difference is tiny, but the mechanism must work.
	n := 2000
	insts := make([]isa.Inst, n)
	for i := range insts {
		switch i % 8 {
		case 0:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpLoad,
				Dst: isa.IntReg(1), Src1: isa.IntReg(28),
				Addr: 0x40_0000_0000 + uint64(i)*4096}
		case 1:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpStore,
				Src1: isa.IntReg(28), Src2: isa.IntReg(1), // stores the (possibly INV) load result
				Addr: 0x1000 + uint64(i%64)*8}
		case 2:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpLoad,
				Dst: isa.IntReg(5), Src1: isa.IntReg(28),
				Addr: 0x1000 + uint64((i-1)%64)*8} // may forward from the store
		default:
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpIntAlu,
				Dst: isa.IntReg(6 + i%8), Src1: isa.IntReg(28), Src2: isa.IntReg(29)}
		}
	}
	tr := trace.FromInsts("fwd", trace.ClassMEM, insts)
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	cfg.Runahead.UseRunaheadCache = true
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	if c.racache == nil {
		t.Fatal("runahead cache not built")
	}
	// Episode exit flushes the thread's entries, so probe the stores'
	// lines every cycle: some runahead store must have installed one.
	c.SetParanoid(true)
	installed := false
	for i := 0; i < 15000; i++ {
		c.Step()
		for line := uint64(0x1000); line < 0x1200; line += c.cfg.Mem.DL1.LineBytes {
			if found, _ := c.racache.LookupLoad(0, line); found {
				installed = true
			}
		}
	}
	if c.Stats(0).RunaheadEpisodes == 0 {
		t.Fatal("no runahead")
	}
	if !installed {
		t.Fatal("runahead cache recorded no stores")
	}
}

func BenchmarkCoreStepMEM2(b *testing.B) {
	art := trace.MustGenerate(trace.MustLookup("art"), trace.Options{Len: 20000, Seed: 1})
	mcf := trace.MustGenerate(trace.MustLookup("mcf"), trace.Options{Len: 20000, Seed: 2,
		DataBase: 0x8000_0000, CodeBase: 0x0200_0000})
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c, err := New(cfg, []*trace.Trace{art, mcf}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

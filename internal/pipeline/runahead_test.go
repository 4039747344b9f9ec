package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/runahead"
	"repro/internal/trace"
)

// TestConcurrentRunahead: two memory-bound threads must be able to run
// ahead simultaneously without corrupting each other's rename state.
func TestConcurrentRunahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{
		missLoadTrace(3000, true),
		missLoadTrace(3000, true),
	}, nil)
	c.SetParanoid(true)
	both := false
	for i := 0; i < 30000; i++ {
		c.Step()
		if c.InRunahead(0) && c.InRunahead(1) {
			both = true
		}
	}
	if !both {
		t.Fatal("two miss-heavy threads never ran ahead concurrently")
	}
	if c.Committed(0) == 0 || c.Committed(1) == 0 {
		t.Fatal("starvation under concurrent runahead")
	}
	st0, st1 := c.Stats(0), c.Stats(1)
	if st0.RunaheadEpisodes == 0 || st1.RunaheadEpisodes == 0 {
		t.Fatal("one thread never entered runahead")
	}
}

// TestNoFetchDuringRunahead checks the Figure 4 resource-availability
// ablation: with FetchInRunahead off, a runahead thread must not fetch.
func TestNoFetchDuringRunahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	cfg.Runahead.FetchInRunahead = false
	c := mustNew(t, cfg, []*trace.Trace{missLoadTrace(2000, true)}, nil)
	c.SetParanoid(true)
	prevFetched := uint64(0)
	for i := 0; i < 20000; i++ {
		wasRunahead := c.InRunahead(0)
		c.Step()
		fetched := c.Stats(0).Fetched
		if wasRunahead && fetched != prevFetched {
			t.Fatalf("cycle %d: runahead thread fetched %d instructions",
				i, fetched-prevFetched)
		}
		prevFetched = fetched
	}
	if c.Stats(0).RunaheadEpisodes == 0 {
		t.Fatal("no episodes")
	}
	// Resources must still be released: pseudo-retires happen (the
	// already-fetched window drains through runahead mode).
	if c.Stats(0).PseudoRetired == 0 {
		t.Fatal("no pseudo-retires in no-fetch runahead")
	}
}

// TestPipelineDeterminism: two identical machines stepped identically must
// agree on every observable counter.
func TestPipelineDeterminism(t *testing.T) {
	mk := func() *Core {
		cfg := DefaultConfig()
		cfg.Runahead = runahead.Default()
		art := trace.MustGenerate(trace.MustLookup("art"), trace.Options{Len: 3000, Seed: 1})
		gzip := trace.MustGenerate(trace.MustLookup("gzip"), trace.Options{Len: 3000, Seed: 2,
			DataBase: 0x8000_0000, CodeBase: 0x0200_0000})
		c, err := New(cfg, []*trace.Trace{art, gzip}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.WarmupCaches()
		return c
	}
	a, b := mk(), mk()
	for i := 0; i < 20000; i++ {
		a.Step()
		b.Step()
	}
	for tid := 0; tid < 2; tid++ {
		sa, sb := a.Stats(tid), b.Stats(tid)
		if sa.Committed != sb.Committed || sa.Executed != sb.Executed ||
			sa.RunaheadEpisodes != sb.RunaheadEpisodes ||
			sa.BranchMispredicted != sb.BranchMispredicted {
			t.Fatalf("thread %d diverged between identical machines", tid)
		}
	}
}

// TestRunaheadExitRewindsExactly: after an episode the thread must
// re-execute from the trigger load — committed counts must never skip
// trace positions. With paranoid mode on, rename rollback errors would
// panic; here we additionally require commit monotonicity and eventual
// full-trace coverage.
func TestRunaheadExitRewindsExactly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	n := 1500
	c := mustNew(t, cfg, []*trace.Trace{missLoadTrace(n, true)}, nil)
	c.SetParanoid(true)
	for i := 0; i < 60000; i++ {
		c.Step()
		if c.Committed(0) >= uint64(2*n) {
			return // two full iterations committed: rewinds were exact
		}
	}
	t.Fatalf("only %d instructions committed; rewind may be losing progress", c.Committed(0))
}

// TestFoldedInstructionsConsumeNoFU: during runahead, folded (INV)
// instructions must not occupy functional units — executed count must
// grow much slower than pseudo-retired count on a poisoned chain.
func TestFoldedInstructionsConsumeNoFU(t *testing.T) {
	// Trace: a miss load followed by a long fully-dependent chain; in
	// runahead nearly everything folds.
	n := 2000
	insts := make([]isa.Inst, n)
	for i := range insts {
		if i%64 == 0 {
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpLoad,
				Dst: isa.IntReg(1), Src1: isa.IntReg(28),
				Addr: 0x50_0000_0000 + uint64(i)*4096}
		} else {
			insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpIntAlu,
				Dst: isa.IntReg(1), Src1: isa.IntReg(1), Src2: isa.IntReg(1)}
		}
	}
	tr := trace.FromInsts("chainload", trace.ClassMEM, insts)
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
	run(t, c, 30000)
	st := c.Stats(0)
	if st.RunaheadEpisodes == 0 {
		t.Fatal("no runahead")
	}
	if st.Folded == 0 {
		t.Fatal("poisoned chain folded nothing")
	}
	// Folded instructions outnumber any executed runahead work on this
	// trace shape.
	if st.Folded < st.PseudoRetired/4 {
		t.Fatalf("folded=%d vs pseudo-retired=%d: poison did not propagate",
			st.Folded, st.PseudoRetired)
	}
}

// TestExitPenaltyDelaysRefetch: a larger exit penalty must not break
// correctness and should not speed the thread up.
func TestExitPenaltyDelaysRefetch(t *testing.T) {
	mk := func(penalty uint64) uint64 {
		cfg := DefaultConfig()
		cfg.Runahead = runahead.Default()
		cfg.Runahead.ExitPenalty = penalty
		c := mustNew(t, cfg, []*trace.Trace{missLoadTrace(2000, true)}, nil)
		run(t, c, 20000)
		return c.Committed(0)
	}
	fast, slow := mk(0), mk(64)
	if slow > fast {
		t.Fatalf("larger exit penalty committed more (%d vs %d)", slow, fast)
	}
}

// TestMispredictRedirectCost: a larger redirect penalty must reduce
// throughput on a mispredict-heavy trace.
func TestMispredictRedirectCost(t *testing.T) {
	mk := func(redirect uint64) uint64 {
		cfg := DefaultConfig()
		cfg.MispredictRedirect = redirect
		n := 2000
		insts := make([]isa.Inst, n)
		for i := range insts {
			if i%5 == 4 {
				insts[i] = isa.Inst{PC: 0x1000 + uint64(16*(i%4)), Op: isa.OpBranch,
					Src1: isa.IntReg(28), Taken: (i/5)%2 == 0}
			} else {
				insts[i] = isa.Inst{PC: uint64(4 * (i % 256)), Op: isa.OpIntAlu,
					Dst: isa.IntReg(1 + i%20), Src1: isa.IntReg(28), Src2: isa.IntReg(29)}
			}
		}
		tr := trace.FromInsts("br", trace.ClassILP, insts)
		c := mustNew(t, cfg, []*trace.Trace{tr}, nil)
		run(t, c, 10000)
		return c.Committed(0)
	}
	fast, slow := mk(2), mk(40)
	if slow >= fast {
		t.Fatalf("larger redirect penalty committed more (%d vs %d)", slow, fast)
	}
}

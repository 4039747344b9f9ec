package pipeline

import (
	"runtime"
	"testing"

	"repro/internal/runahead"
	"repro/internal/trace"
)

// stopMidEpisode steps c until it is caught in the middle of a runahead
// episode, with also holding: a thread in runahead mode with its
// trigger's miss outstanding and instructions in flight.
func stopMidEpisode(t *testing.T, c *Core, also func() bool) {
	t.Helper()
	for i := 0; i < 50_000; i++ {
		c.Step()
		if c.robCount == 0 || !also() {
			continue
		}
		for tid := range c.threads {
			if c.InRunahead(tid) && c.PendingL2Miss(tid) && c.ROBOccupancy(tid) > 0 {
				return
			}
		}
	}
	t.Fatal("no runahead episode to stop in")
}

// TestResetMidEpisodeMatchesNew stops a core in the middle of a runahead
// episode, resets it to another shape, and steps it in paranoid mode next
// to a core New built for that shape: their statistics must agree at
// every 256-cycle block. The shapes shrink and then grow (thread count,
// ROB, registers, queues, caches, predictor), so both the kept and the
// reallocated storage are exercised, and the first stop is taken under
// the no-prefetch ablation with loads in the suppression set.
func TestResetMidEpisodeMatchesNew(t *testing.T) {
	noPrefetch := runahead.Default()
	noPrefetch.Prefetch = false
	withCache := runahead.Default()
	withCache.UseRunaheadCache = true
	shapes := []struct {
		name   string
		cfg    func(*Config)
		traces []*trace.Trace
	}{
		{"2 threads, no prefetch", func(c *Config) {
			c.Runahead = noPrefetch
			c.ROBSize, c.IntRegs, c.FPRegs = 256, 128, 128
			c.IntIQ, c.FPIQ, c.LSIQ = 32, 32, 32
			c.FetchQueue = 8
		}, []*trace.Trace{missLoadTrace(2000, false), missLoadTrace(2000, true)}},
		{"1 thread, runahead cache", func(c *Config) {
			c.Runahead = withCache
			c.RunaheadCacheEntries = 64
			c.ROBSize, c.IntRegs, c.FPRegs = 128, 96, 96
		}, []*trace.Trace{missLoadTrace(3000, true)}},
		{"4 threads, larger machine", func(c *Config) {
			c.Runahead = runahead.Default()
			c.ROBSize, c.IntRegs, c.FPRegs = 1024, 512, 512
			c.IntFU, c.LSFU = 8, 6
			c.Mem.L2.SizeBytes, c.Mem.L2.Ways = 2<<20, 16
			c.BranchPredRows = 8192
		}, []*trace.Trace{missLoadTrace(2000, true), missLoadTrace(2000, false), aluTrace(1000), chainTrace(1000)}},
		{"2 threads, small lines", func(c *Config) {
			c.Runahead = noPrefetch
			c.Mem.IL1.LineBytes, c.Mem.DL1.LineBytes, c.Mem.L2.LineBytes = 32, 32, 32
			c.Mem.L2.SizeBytes = 256 << 10
			c.BranchPredRows = 512
		}, []*trace.Trace{missLoadTrace(2000, true), aluTrace(1000)}},
	}
	build := func(i int) Config {
		cfg := DefaultConfig()
		shapes[i].cfg(&cfg)
		return cfg
	}
	c := mustNew(t, build(0), shapes[0].traces, nil)
	for i := 1; i < len(shapes); i++ {
		stopMidEpisode(t, c, func() bool {
			// The no-prefetch shape stops with loads in the suppression
			// set of the context the next shape keeps.
			return i != 1 || len(c.threads[0].raSuppress) > 0
		})
		cfg, traces := build(i), shapes[i].traces
		if err := c.Reset(cfg, traces, nil); err != nil {
			t.Fatalf("%s: %v", shapes[i].name, err)
		}
		c.WarmupICache()
		fresh := mustNew(t, cfg, traces, nil)
		c.SetParanoid(true)
		fresh.SetParanoid(true)
		for block := 1; block <= 24; block++ {
			for k := 0; k < 256; k++ {
				c.Step()
				fresh.Step()
			}
			for tid := range traces {
				if got, want := *c.Stats(tid), *fresh.Stats(tid); got != want {
					t.Fatalf("%s, block %d, thread %d: reset core\n %+v\nnew core\n %+v",
						shapes[i].name, block, tid, got, want)
				}
			}
			if got, want := c.Hierarchy().PrefetchIssue, fresh.Hierarchy().PrefetchIssue; got != want {
				t.Fatalf("%s, block %d: %d prefetches on the reset core, %d on the new one",
					shapes[i].name, block, got, want)
			}
		}
		c.SetParanoid(false)
	}
}

// TestResetRejectsWithoutChange: a Reset that fails validation leaves the
// core as it was, mid-run state included.
func TestResetRejectsWithoutChange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	traces := []*trace.Trace{missLoadTrace(2000, true)}
	c, ref := mustNew(t, cfg, traces, nil), mustNew(t, cfg, traces, nil)
	run(t, c, 3000)
	run(t, ref, 3000)
	bad := cfg
	bad.ROBSize = 0
	if err := c.Reset(bad, traces, nil); err == nil {
		t.Fatal("ROB size 0 accepted")
	}
	if err := c.Reset(cfg, nil, nil); err == nil {
		t.Fatal("no threads accepted")
	}
	run(t, c, 3000)
	run(t, ref, 3000)
	if got, want := *c.Stats(0), *ref.Stats(0); got != want {
		t.Fatalf("after rejected resets\n %+v\nwant\n %+v", got, want)
	}
}

// TestResetKeepsEveryBuffer stops a core mid-episode, resets it to the
// same machine and traces, and replays the same cycles: the replay must
// not allocate, so every instruction in flight at the stop went back to
// the free list and every buffer the run grew was kept.
func TestResetKeepsEveryBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runahead = runahead.Default()
	cfg.Runahead.Prefetch = false
	cfg.Runahead.UseRunaheadCache = true
	traces := []*trace.Trace{missLoadTrace(2000, true), missLoadTrace(2000, false)}
	c := mustNew(t, cfg, traces, nil)
	stopMidEpisode(t, c, func() bool { return c.Cycle() > 3000 })
	cycles := c.Cycle()
	if err := c.Reset(cfg, traces, nil); err != nil {
		t.Fatal(err)
	}
	c.WarmupICache()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c.Cycle() < cycles {
		c.Step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("replaying %d cycles after Reset made %d allocations", cycles, n)
	}
}

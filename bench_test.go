// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment, on a reduced suite sized for
// `go test -bench`. Each benchmark reports the headline quantity of its
// figure as custom metrics, so `go test -bench=. -benchmem` doubles as a
// results dashboard; cmd/experiments runs the same harness at full scale.
package repro_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/runahead"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// benchOptions returns harness options sized for benchmarking.
func benchOptions() experiments.Options {
	o := experiments.Quick()
	o.TraceLen = 6_000
	o.PerGroup = 2
	return o
}

// benchSession builds a session or fails the benchmark.
func benchSession(b *testing.B, o experiments.Options) *experiments.Session {
	b.Helper()
	s, err := experiments.NewSession(o)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1_BaselineMachine measures the simulator itself: cycles
// per second stepping the Table 1 machine on a representative MEM2
// workload under the baseline policy.
func BenchmarkTable1_BaselineMachine(b *testing.B) {
	w := workload.MustByGroup("MEM2")[1]
	cfg := core.DefaultConfig()
	cfg.TraceLen = 6_000
	cfg.Policy = core.PolicyICount
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyStateCore builds a runahead-enabled core on a representative MEM2
// workload and steps it past its allocation transient (DynInst pool
// build-up, ring/wheel growth), so what follows measures the steady state.
func steadyStateCore(tb testing.TB) *pipeline.Core {
	tb.Helper()
	w := workload.MustByGroup("MEM2")[1]
	cfg := pipeline.DefaultConfig()
	cfg.Runahead = runahead.Default()
	c, err := pipeline.New(cfg, w.MustTraces(6_000, 1), nil)
	if err != nil {
		tb.Fatal(err)
	}
	c.WarmupCaches()
	for i := 0; i < 200_000; i++ {
		c.Step()
	}
	return c
}

// BenchmarkStepAllocs guards the zero-allocation property of the
// simulation hot loop: once warm, Core.Step must not touch the heap
// (allocs/op must report 0). The DynInst free list, the ring-buffered
// ROB/fetch queues, and the id-validated completion wheel are what this
// benchmark protects.
func BenchmarkStepAllocs(b *testing.B) {
	c := steadyStateCore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// TestStepZeroAllocSteadyState is the same guard in test form, so plain
// `go test` catches an allocation regression without running benchmarks.
func TestStepZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is slow")
	}
	c := steadyStateCore(t)
	avg := testing.AllocsPerRun(50_000, func() { c.Step() })
	// A strict zero tolerates no background growth at all; allow a hair
	// of slack for one-off capacity doublings that survive warmup, while
	// still failing hard if Step ever allocates per cycle (or per fetched
	// instruction, which shows up as >1 per step).
	if avg > 0.001 {
		t.Fatalf("Core.Step allocates %.4f objects/cycle in steady state, want 0", avg)
	}
}

// BenchmarkTable2_WorkloadGeneration measures materializing the full
// Table 2 suite of synthetic traces.
func BenchmarkTable2_WorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range workload.All() {
			w.MustTraces(2_000, uint64(i+1))
		}
	}
}

// BenchmarkFig1_FetchPolicies regenerates Figure 1 (ICOUNT, STALL, FLUSH,
// RaT) and reports the MEM2 throughput of RaT and FLUSH — the pair behind
// the paper's "+83%" headline.
func BenchmarkFig1_FetchPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, benchOptions())
		f, err := s.Fig1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Throughput["MEM2"][core.PolicyRaT], "MEM2-RaT-IPC")
		b.ReportMetric(f.Throughput["MEM2"][core.PolicyFLUSH], "MEM2-FLUSH-IPC")
	}
}

// BenchmarkFig2_ResourcePolicies regenerates Figure 2 (ICOUNT, DCRA,
// HillClimbing, RaT) and reports RaT's MEM2 margin over DCRA.
func BenchmarkFig2_ResourcePolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, benchOptions())
		f, err := s.Fig2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Throughput["MEM2"][core.PolicyRaT], "MEM2-RaT-IPC")
		b.ReportMetric(f.Throughput["MEM2"][core.PolicyDCRA], "MEM2-DCRA-IPC")
	}
}

// BenchmarkFig3_EnergyDelay regenerates Figure 3 and reports RaT's ED²
// normalized to ICOUNT (the paper: ~0.6 for 2-thread, ~0.78 for 4-thread).
func BenchmarkFig3_EnergyDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, benchOptions())
		f, err := s.Fig3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.ED2["MEM2"][core.PolicyRaT], "MEM2-RaT-ED2")
		b.ReportMetric(f.ED2["MEM2"][core.PolicyFLUSH], "MEM2-FLUSH-ED2")
	}
}

// BenchmarkFig4_SourcesOfImprovement regenerates Figure 4's decomposition
// and reports the prefetching share for MEM2 plus the overhead bound.
func BenchmarkFig4_SourcesOfImprovement(b *testing.B) {
	opts := benchOptions()
	opts.Groups = []string{"MIX2", "MEM2"}
	for i := 0; i < b.N; i++ {
		s := benchSession(b, opts)
		f, err := s.Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.Prefetching["MEM2"], "MEM2-prefetch-%")
		b.ReportMetric(100*f.Overhead["MIX2"], "MIX2-overhead-%")
	}
}

// BenchmarkFig5_RegisterOccupancy regenerates Figure 5 and reports the
// normal-mode versus runahead-mode register occupancy for MEM2.
func BenchmarkFig5_RegisterOccupancy(b *testing.B) {
	opts := benchOptions()
	opts.Groups = []string{"MEM2"}
	for i := 0; i < b.N; i++ {
		s := benchSession(b, opts)
		f, err := s.Fig5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Normal["MEM2"], "regs-normal")
		b.ReportMetric(f.Runahead["MEM2"], "regs-runahead")
	}
}

// BenchmarkFig6_RegisterFileSweep regenerates Figure 6 and reports the
// §6.2 headline pair: RaT at 128 registers versus FLUSH at 320.
func BenchmarkFig6_RegisterFileSweep(b *testing.B) {
	opts := benchOptions()
	opts.Groups = []string{"MEM2", "MEM4"}
	opts.RegSizes = []int{64, 128, 320}
	for i := 0; i < b.N; i++ {
		s := benchSession(b, opts)
		f, err := s.Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Throughput["MEM4"][128][core.PolicyRaT], "MEM4-RaT@128")
		b.ReportMetric(f.Throughput["MEM4"][320][core.PolicyFLUSH], "MEM4-FLUSH@320")
	}
}

// BenchmarkAblation_RunaheadCache compares RaT with and without the
// runahead cache (the §3.3 decision: the cache buys little).
func BenchmarkAblation_RunaheadCache(b *testing.B) {
	w := workload.MustByGroup("MEM2")[1]
	cfg := core.DefaultConfig()
	cfg.TraceLen = 6_000
	for i := 0; i < b.N; i++ {
		cfg.Policy = core.PolicyRaT
		plain, err := core.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Policy = core.PolicyRaTCache
		cached, err := core.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metrics.Throughput(plain.IPCs()), "IPC-no-racache")
		b.ReportMetric(metrics.Throughput(cached.IPCs()), "IPC-racache")
	}
}

// BenchmarkAblation_FPInvalidation compares RaT with and without §3.3's
// decode-time FP invalidation on an FP-heavy memory-bound workload.
func BenchmarkAblation_FPInvalidation(b *testing.B) {
	w := workload.Workload{Group: "MEM2", Benchmarks: []string{"swim", "lucas"}}
	cfg := core.DefaultConfig()
	cfg.TraceLen = 6_000
	for i := 0; i < b.N; i++ {
		cfg.Policy = core.PolicyRaT
		on, err := core.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Policy = core.PolicyRaTNoFPInv
		off, err := core.Run(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metrics.Throughput(on.IPCs()), "IPC-fpinv")
		b.ReportMetric(metrics.Throughput(off.IPCs()), "IPC-nofpinv")
	}
}

// BenchmarkRobSweep runs the shipped rob-sweep example scenario on a
// fresh session per iteration. Fresh sessions keep the simulation cache
// from turning later iterations into pure hits; the benchmark therefore
// measures end-to-end sweep execution — trace service included.
func BenchmarkRobSweep(b *testing.B) {
	sp, err := scenario.Load("examples/scenarios/rob-sweep.json")
	if err != nil {
		b.Fatal(err)
	}
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := benchSession(b, o)
		rs, err := s.RunScenario(sp)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Rows) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// reuseCell is one cell of a machine-reuse sequence: a workload, a policy
// and the changes it makes to the Table 1 machine.
type reuseCell struct {
	w   workload.Workload
	pol PolicyKind
	set func(p *pipeline.Config)
}

func single(benchmark string) workload.Workload {
	w, _ := Reference(Config{}, benchmark)
	return w
}

// TestMachineReuseMatchesFresh runs one Machine through a sequence of
// cells that changes the thread count (1, 2, 4), the register files, ROB,
// issue queues and functional units, the L2's size, ways and line size,
// the predictor rows and the policy, shrinking and growing each. Every
// Result must deep-equal a fresh RunTraced of the same cell, and a cell
// that fails validation must leave the machine usable.
func TestMachineReuseMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("machine reuse sequence")
	}
	mem2, mem4 := workload.MustByGroup("MEM2")[0], workload.MustByGroup("MEM4")[0]
	mix2, ilp2, ilp4 := workload.MustByGroup("MIX2")[0], workload.MustByGroup("ILP2")[0], workload.MustByGroup("ILP4")[0]
	cells := []reuseCell{
		{mem2, PolicyRaT, nil},
		{single("mcf"), PolicyRaTNoPrefetch, func(p *pipeline.Config) {
			p.ROBSize, p.IntRegs, p.FPRegs = 128, 96, 96
			p.IntIQ, p.FPIQ, p.LSIQ = 32, 32, 32
		}},
		{mem4, PolicyFLUSH, func(p *pipeline.Config) {
			p.Mem.L2.SizeBytes, p.Mem.L2.Ways = 2<<20, 16
		}},
		{mix2, PolicyRaTCache, func(p *pipeline.Config) {
			p.Mem.L2.SizeBytes, p.Mem.L2.Ways = 256<<10, 4
			p.Mem.IL1.LineBytes, p.Mem.DL1.LineBytes, p.Mem.L2.LineBytes = 32, 32, 32
			p.RunaheadCacheEntries = 64
		}},
		{ilp4, PolicyDCRA, func(p *pipeline.Config) {
			p.IntFU, p.FPFU, p.LSFU = 4, 2, 2
			p.BranchPredRows = 1024
		}},
		{single("art"), PolicyHillClimbing, func(p *pipeline.Config) {
			p.BranchPredRows = 8192
			p.ROBSize, p.IntRegs, p.FPRegs = 1024, 512, 512
			p.IntFU, p.FPFU, p.LSFU = 8, 4, 6
		}},
		{mem2, PolicyMLP, func(p *pipeline.Config) {
			p.Mem.IL1.LineBytes, p.Mem.DL1.LineBytes, p.Mem.L2.LineBytes = 128, 128, 128
			p.Mem.L2.SizeBytes = 512 << 10
		}},
		{mem4, PolicyRaTNoPrefetch, func(p *pipeline.Config) {
			p.IntIQ, p.FPIQ, p.LSIQ = 16, 16, 16
			p.FetchQueue = 8
		}},
		{mem2, PolicyRaTCache, func(p *pipeline.Config) { p.RunaheadCacheEntries = 2048 }},
		{mix2, PolicyRaTDCRA, nil},
		{mem2, PolicyRaTNoFPInv, func(p *pipeline.Config) { p.IntRegs, p.FPRegs = 64, 64 }},
		{ilp2, PolicyRR, nil},
		{mem2, PolicySTALL, nil},
		{mem2, PolicyRaT, nil},
	}
	var m Machine
	for i, c := range cells {
		cfg := DefaultConfig()
		cfg.TraceLen = 1_500
		cfg.Policy = c.pol
		if c.set != nil {
			c.set(&cfg.Pipeline)
		}
		want, err := RunTraced(cfg, c.w, nil)
		if err != nil {
			t.Fatalf("cell %d (%s %s): %v", i, c.w.Name(), c.pol, err)
		}
		got, err := m.Run(cfg, c.w, nil)
		if err != nil {
			t.Fatalf("cell %d (%s %s) on the reused machine: %v", i, c.w.Name(), c.pol, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d (%s %s): reused machine differs from a fresh one:\n got  %+v\n want %+v",
				i, c.w.Name(), c.pol, got, want)
		}
		if i == len(cells)/2 {
			// A configuration that fails validation in the middle of the
			// sequence changes nothing the next cell sees.
			bad := cfg
			bad.Pipeline.ROBSize = 0
			if _, err := m.Run(bad, c.w, nil); err == nil {
				t.Fatal("ROB size 0 accepted")
			}
		}
	}
}

// totalAlloc returns the bytes f allocates on the heap.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMachineReuseAllocs guards the point of Machine: a second cell of the
// same shape, reset in place, allocates under a tenth of the bytes a cell
// on a new machine does (the caches, predictor table, completion wheel
// and instruction pool are kept).
func TestMachineReuseAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceLen = 3_000
	cfg.Policy = PolicyRaT
	w := workload.MustByGroup("MEM2")[0]
	ts := tracestore.New(tracestore.DefaultMemBytes)
	var m Machine
	run := func(m *Machine) {
		if _, err := m.Run(cfg, w, ts); err != nil {
			t.Fatal(err)
		}
	}
	run(&m) // generates the traces and builds m
	fresh := totalAlloc(func() { run(new(Machine)) })
	reused := totalAlloc(func() { run(&m) })
	t.Logf("fresh cell %d B, reused cell %d B", fresh, reused)
	if reused*10 >= fresh {
		t.Fatalf("a reused cell allocates %d B, not under a tenth of a fresh cell's %d B", reused, fresh)
	}
}

// BenchmarkMachineRun measures one 3000-instruction MEM2 cell under RaT,
// on a new machine per cell (fresh) and on one machine reset in place
// (reused); -benchmem shows what the reuse saves.
func BenchmarkMachineRun(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TraceLen = 3_000
	cfg.Policy = PolicyRaT
	w := workload.MustByGroup("MEM2")[0]
	for _, bc := range []struct {
		name    string
		machine func(*Machine) *Machine
	}{
		{"fresh", func(*Machine) *Machine { return new(Machine) }},
		{"reused", func(m *Machine) *Machine { return m }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ts := tracestore.New(tracestore.DefaultMemBytes)
			var m Machine
			if _, err := m.Run(cfg, w, ts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.machine(&m).Run(cfg, w, ts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// runCounted is Run that also reports whether any thread issued a demand
// load served by memory over the whole run, warm-up included: the window
// counts in ThreadResult.L2MissLoads miss the warm-up phase.
func runCounted(t *testing.T, cfg Config, w workload.Workload) (*Result, bool) {
	t.Helper()
	cfg = cfg.withRunDefaults()
	var m Machine
	if err := m.load(cfg, w, nil); err != nil {
		t.Fatal(err)
	}
	c := m.core
	res := measure(c, cfg, w)
	missed := false
	for tid := 0; tid < c.NumThreads(); tid++ {
		missed = missed || c.Stats(tid).L2MissLoads > 0
	}
	return res, missed
}

// TestMetamorphicRelations checks exact relations between runs of one
// workload under different policies, which no golden of a single run can
// show:
//
//   - with one thread, RR and ICOUNT fetch from the same thread every
//     cycle, so their Results match bit for bit apart from Policy;
//   - STALL, FLUSH, MLP, RaT and the RaT ablations differ from ICOUNT only
//     in how they react to loads that miss the L2, so when no load does,
//     their Results match ICOUNT's bit for bit apart from Policy.
func TestMetamorphicRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep")
	}
	missReactive := []PolicyKind{
		PolicySTALL, PolicyFLUSH, PolicyMLP, PolicyRaT,
		PolicyRaTNoPrefetch, PolicyRaTNoFetch, PolicyRaTCache, PolicyRaTNoFPInv,
	}
	same := func(t *testing.T, base, got *Result, p PolicyKind) {
		t.Helper()
		want := *base
		want.Policy = p
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s differs from %s:\n got %+v\nwant %+v", p, base.Policy, *got, want)
		}
	}
	missFree := 0
	for _, w := range []workload.Workload{
		{Group: "ST", Benchmarks: []string{"mcf"}},
		{Group: "ST", Benchmarks: []string{"gzip"}},
		{Group: "ST", Benchmarks: []string{"apsi"}},
		{Group: "ILP2", Benchmarks: []string{"gzip", "bzip2"}},
		{Group: "MEM2", Benchmarks: []string{"art", "mcf"}},
	} {
		t.Run(w.Name(), func(t *testing.T) {
			cfg := fastCfg()
			base, missed := runCounted(t, cfg, w)
			if w.Threads() == 1 {
				cfg.Policy = PolicyRR
				rr, _ := runCounted(t, cfg, w)
				same(t, base, rr, PolicyRR)
			}
			if missed {
				return
			}
			missFree++
			for _, p := range missReactive {
				cfg.Policy = p
				got, _ := runCounted(t, cfg, w)
				same(t, base, got, p)
			}
		})
	}
	if missFree == 0 {
		t.Fatal("no case ran without an L2-miss load: the ICOUNT-equivalence relation was never checked")
	}
}

package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.TraceLen = 4_000
	cfg.MaxCycles = 3_000_000
	return cfg
}

func TestRunBasics(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyRaT
	w := workload.MustByGroup("MIX2")[1]
	res, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != w.Name() || res.Policy != PolicyRaT {
		t.Fatal("result identity wrong")
	}
	if res.Cycles == 0 || res.Truncated {
		t.Fatalf("cycles=%d truncated=%v", res.Cycles, res.Truncated)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("threads = %d", len(res.Threads))
	}
	for i, th := range res.Threads {
		if th.Benchmark != w.Benchmarks[i] {
			t.Errorf("thread %d benchmark %q", i, th.Benchmark)
		}
		// FAME: every thread must have committed at least one full
		// measured trace iteration.
		if th.Committed < uint64(cfg.TraceLen) {
			t.Errorf("thread %d committed %d < trace length %d (FAME violated)",
				i, th.Committed, cfg.TraceLen)
		}
		if th.IPC <= 0 {
			t.Errorf("thread %d IPC %v", i, th.IPC)
		}
	}
	if res.CommittedTotal == 0 || res.ExecutedTotal == 0 {
		t.Fatal("zero totals")
	}
	if got := len(res.IPCs()); got != 2 {
		t.Fatalf("IPCs length %d", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = PolicyRaT
	w := workload.MustByGroup("MEM2")[1]
	a, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.CommittedTotal != b.CommittedTotal ||
		a.ExecutedTotal != b.ExecutedTotal {
		t.Fatalf("nondeterministic runs: %+v vs %+v", a, b)
	}
	for i := range a.Threads {
		if a.Threads[i] != b.Threads[i] {
			t.Fatalf("thread %d results differ", i)
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	cfg := fastCfg()
	w := workload.MustByGroup("MEM2")[1]
	a, _ := Run(cfg, w)
	cfg.Seed = 99
	b, _ := Run(cfg, w)
	if a.Cycles == b.Cycles && a.ExecutedTotal == b.ExecutedTotal {
		t.Fatal("different seeds produced identical measurements (suspicious)")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	cfg := fastCfg()
	cfg.Policy = "bogus"
	if _, err := Run(cfg, workload.MustByGroup("ILP2")[0]); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestValidateSeesPolicyRunahead: Validate checks the pipeline the
// policy implies, not Config.Pipeline alone, so the runahead-cache
// ablation with no cache entries fails validation, as its run would,
// while policies that use no runahead cache ignore the size.
func TestValidateSeesPolicyRunahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pipeline.RunaheadCacheEntries = 0
	if err := cfg.Pipeline.Validate(); err != nil {
		t.Fatalf("Pipeline alone: %v", err)
	}
	cfg.Policy = PolicyRaTCache
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "runahead cache") {
		t.Errorf("%s with 0 entries: err = %v, want the runahead cache rejected", cfg.Policy, err)
	}
	if _, err := Run(cfg, workload.MustByGroup("ILP2")[0]); err == nil {
		t.Errorf("%s with 0 entries ran", cfg.Policy)
	}
	for _, p := range []PolicyKind{PolicyICount, PolicyRaT, PolicyRaTDCRA} {
		cfg.Policy = p
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	cfg.Policy = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Error("bogus policy validated")
	}
}

// TestValidateMeasurementBounds: each measurement cap is accepted and one
// past it rejected, by Validate and by a run alike; 0 selects the run
// default and a negative value is rejected. The rejected inputs include
// a 2^40-instruction trace, which no worker can generate, and a FAME span
// of 2^14 x 2^50 = 2^64, which wrapped to 0 and reported an empty window.
func TestValidateMeasurementBounds(t *testing.T) {
	w := workload.MustByGroup("MEM2")[1]
	for _, tc := range []struct {
		name          string
		traceLen, min int
		ok            bool
	}{
		{"defaults", 0, 0, true},
		{"trace length cap", maxTraceLen, 1, true},
		{"iterations cap", 1000, maxMinIterations, true},
		{"trace length past cap", maxTraceLen + 1, 1, false},
		{"trace length 2^40", 1 << 40, 1, false},
		{"negative trace length", -1, 1, false},
		{"iterations past cap", 1000, maxMinIterations + 1, false},
		{"wrapping FAME span", 1 << 14, 1 << 50, false},
		{"negative iterations", 1000, -1, false},
	} {
		cfg := fastCfg()
		cfg.TraceLen, cfg.MinIterations = tc.traceLen, tc.min
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok %v", tc.name, err, tc.ok)
		}
		if !tc.ok {
			if _, err := Run(cfg, w); err == nil {
				t.Errorf("%s: ran", tc.name)
			}
		}
	}
}

// TestHugeWarmupTruncates: the warm phase is bounded by MaxCycles/2, not
// by WarmupInsts, so a 2^40-instruction warm-up on a 20,000-cycle budget
// returns at once with Truncated set.
func TestHugeWarmupTruncates(t *testing.T) {
	cfg := fastCfg()
	cfg.WarmupInsts = 1 << 40
	cfg.MaxCycles = 20_000
	res, err := Run(cfg, workload.MustByGroup("MEM2")[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Errorf("2^40 warm-up instructions in 20,000 cycles not truncated: %+v", res)
	}
}

func TestAllPoliciesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("policy sweep")
	}
	w := workload.MustByGroup("MIX2")[1]
	for _, p := range AllPolicies() {
		cfg := fastCfg()
		cfg.Policy = p
		res, err := Run(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.CommittedTotal == 0 {
			t.Errorf("%s: nothing committed", p)
		}
	}
}

func TestRaTDCRAComposition(t *testing.T) {
	if testing.Short() {
		t.Skip("composition sweep")
	}
	// The future-work composition must still enter runahead (DCRA caps
	// must not suppress the mechanism).
	cfg := fastCfg()
	cfg.Policy = PolicyRaTDCRA
	res, err := Run(cfg, workload.MustByGroup("MEM2")[1])
	if err != nil {
		t.Fatal(err)
	}
	eps := uint64(0)
	for _, th := range res.Threads {
		eps += th.RunaheadEpisodes
	}
	if eps == 0 {
		t.Fatal("RaT+DCRA never entered runahead")
	}
}

func TestTruncationReported(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxCycles = 2_000 // absurdly small
	res, err := Run(cfg, workload.MustByGroup("MEM2")[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("truncation not reported")
	}
}

func TestRegisterOverrideApplied(t *testing.T) {
	cfg := fastCfg()
	cfg.Pipeline.IntRegs = 64
	cfg.Pipeline.FPRegs = 64
	cfg.Policy = PolicyRaT
	res, err := Run(cfg, workload.MustByGroup("MEM2")[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range res.Threads {
		if th.RegsNormal > 128 || th.RegsRunahead > 128 {
			t.Fatalf("occupancy exceeds 64+64 files: %+v", th)
		}
	}
}

// TestParanoidEveryPolicy runs every policy kind — the evaluation set,
// round-robin, the Figure 4 ablations, MLP and RaT+DCRA — on a real MEM2
// and ILP2 workload with the pipeline's per-cycle invariant checks on, so
// the no-prefetch suppression, runahead-cache forwarding, FP invalidation
// and FLUSH squash paths all meet the wakeup oracle. Checking must not
// perturb the machine: each Result deep-equals the unchecked run's.
func TestParanoidEveryPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("paranoid policy sweep")
	}
	workloads := []workload.Workload{
		workload.MustByGroup("MEM2")[0],
		workload.MustByGroup("ILP2")[0],
	}
	for _, w := range workloads {
		for _, p := range AllPolicies() {
			cfg := fastCfg()
			cfg.TraceLen = 2_000
			cfg.Policy = p
			cfg = cfg.withRunDefaults()
			want, err := Run(cfg, w)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name(), p, err)
			}
			var m Machine
			if err := m.load(cfg, w, nil); err != nil {
				t.Fatalf("%s %s: %v", w.Name(), p, err)
			}
			m.core.SetParanoid(true)
			if got := measure(m.core, cfg, w); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: paranoid run differs:\n got  %+v\n want %+v", w.Name(), p, got, want)
			}
			// The runahead variants must actually run ahead on MEM2, or
			// their fold paths went unchecked.
			if _, ra, _ := buildPolicy(p); ra.Enabled && w.Group == "MEM2" {
				eps := uint64(0)
				for _, th := range want.Threads {
					eps += th.RunaheadEpisodes
				}
				if eps == 0 {
					t.Errorf("%s %s: no runahead episode", w.Name(), p)
				}
			}
		}
	}
}

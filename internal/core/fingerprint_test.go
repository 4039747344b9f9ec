package core

import (
	"strings"
	"testing"
)

func TestCanonicalDistinguishesEveryKnob(t *testing.T) {
	base := DefaultConfig()
	variants := []func(*Config){
		func(c *Config) { c.Policy = PolicyRaT },
		func(c *Config) { c.Pipeline.ROBSize = 256 },
		func(c *Config) { c.Pipeline.IntRegs = 192 },
		func(c *Config) { c.Pipeline.Width = 4 },
		func(c *Config) { c.Pipeline.Mem.L2.Latency = 30 },
		func(c *Config) { c.Pipeline.Mem.MemLatency = 200 },
		func(c *Config) { c.Pipeline.Runahead.Prefetch = true },
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.TraceLen = 999 },
	}
	seen := map[string]int{base.Canonical(): -1}
	for i, mutate := range variants {
		c := base
		mutate(&c)
		canon := c.Canonical()
		if prev, dup := seen[canon]; dup {
			t.Errorf("variant %d collides with %d: %s", i, prev, canon)
		}
		seen[canon] = i
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Canonical() != b.Canonical() {
		t.Fatal("equal configs render different canonical strings")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal configs render different fingerprints")
	}
	if len(a.Fingerprint()) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", a.Fingerprint())
	}
	c := a
	c.Pipeline.ROBSize++
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("ROB change did not change the fingerprint")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"ICOUNT", "RaT", "FLUSH", "DCRA", "HillClimbing", "RaT-noprefetch", "MLP"} {
		k, err := ParsePolicy(name)
		if err != nil || string(k) != name {
			t.Errorf("ParsePolicy(%q) = %q, %v", name, k, err)
		}
	}
	if k, err := ParsePolicy(""); err != nil || k != PolicyICount {
		t.Errorf("empty policy = %q, %v, want ICOUNT", k, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	} else if !strings.Contains(err.Error(), "RaT") {
		t.Errorf("error does not list valid policies: %v", err)
	}
}

// TestReferenceMapping pins the fairness reference: the benchmark alone
// in group ST, under ICOUNT, with every other Canonical() field of the
// SMT run's machine unchanged — whatever policy the SMT run used.
func TestReferenceMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pipeline.ROBSize = 200
	cfg.Pipeline.IntRegs = 192
	cfg.Pipeline.Mem.MemLatency = 250
	cfg.TraceLen = 1234
	cfg.MaxCycles = 77_000
	cfg.Seed = 9
	cfg.RunaheadExitPenalty = 3
	for _, p := range allPolicies() {
		cfg.Policy = p
		w, ref := Reference(cfg, "mcf")
		if w.Group != "ST" || len(w.Benchmarks) != 1 || w.Benchmarks[0] != "mcf" {
			t.Errorf("%s: reference workload = %+v, want group ST running mcf alone", p, w)
		}
		if ref.Policy != PolicyICount {
			t.Errorf("%s: reference policy = %s, want ICOUNT", p, ref.Policy)
		}
		ref.Policy = cfg.Policy
		if ref.Canonical() != cfg.Canonical() {
			t.Errorf("%s: reference changed more than the policy:\n got: %s\nwant: %s", p, ref.Canonical(), cfg.Canonical())
		}
	}
}

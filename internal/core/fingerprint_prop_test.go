package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// mutators randomize every layer of the configuration tree a scenario
// delta can reach: pipeline geometry, memory hierarchy, runahead knobs,
// policy, and measurement parameters. Each draws from a small range so
// random pairs collide structurally often enough to exercise the
// equality direction of the properties, not just the inequality one.
var mutators = []func(*Config, *rand.Rand){
	func(c *Config, r *rand.Rand) { c.Policy = AllPolicies()[r.Intn(len(AllPolicies()))] },
	func(c *Config, r *rand.Rand) { c.Pipeline.Width = 2 + r.Intn(4) },
	func(c *Config, r *rand.Rand) { c.Pipeline.FetchThreads = 1 + r.Intn(2) },
	func(c *Config, r *rand.Rand) { c.Pipeline.FrontEndDepth = uint64(3 + r.Intn(4)) },
	func(c *Config, r *rand.Rand) { c.Pipeline.FetchQueue = 16 + 16*r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.ROBSize = 64 << r.Intn(4) },
	func(c *Config, r *rand.Rand) { c.Pipeline.IntRegs = 64 + 64*r.Intn(5) },
	func(c *Config, r *rand.Rand) { c.Pipeline.FPRegs = 64 + 64*r.Intn(5) },
	func(c *Config, r *rand.Rand) { c.Pipeline.IntIQ = 32 + 16*r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.FPIQ = 32 + 16*r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.LSIQ = 32 + 16*r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.IntFU = 2 + r.Intn(4) },
	func(c *Config, r *rand.Rand) { c.Pipeline.MispredictRedirect = uint64(4 + r.Intn(8)) },
	func(c *Config, r *rand.Rand) { c.Pipeline.BranchPredRows = 1 << (8 + r.Intn(4)) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.IL1.SizeBytes = 32 << 10 << r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.DL1.Ways = 1 << r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.DL1.Latency = uint64(2 + r.Intn(3)) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.L2.SizeBytes = 512 << 10 << r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.L2.Latency = uint64(10 + r.Intn(20)) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.MemLatency = uint64(200 + 100*r.Intn(3)) },
	func(c *Config, r *rand.Rand) { c.Pipeline.Mem.MSHRs = 8 << r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.Pipeline.RunaheadCacheEntries = 16 << r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.RunaheadExitPenalty = uint64(r.Intn(64)) },
	func(c *Config, r *rand.Rand) { c.TraceLen = 1000 * (1 + r.Intn(20)) },
	func(c *Config, r *rand.Rand) { c.MinIterations = 1 + r.Intn(3) },
	func(c *Config, r *rand.Rand) { c.WarmupInsts = 500 * r.Intn(4) },
	func(c *Config, r *rand.Rand) { c.MaxCycles = uint64(1_000_000 * (1 + r.Intn(10))) },
	func(c *Config, r *rand.Rand) { c.Seed = uint64(r.Intn(8)) },
}

// randConfig applies a random subset of mutators to the Table 1 machine.
func randConfig(r *rand.Rand) Config {
	c := DefaultConfig()
	for n := r.Intn(6); n > 0; n-- {
		mutators[r.Intn(len(mutators))](&c, r)
	}
	return c
}

// TestCanonicalFingerprintProperties checks, over a seeded random
// population of configurations, the three properties the simulation
// cache key contract rests on:
//
//  1. Canonical and Fingerprint are pure: repeated application to one
//     config yields identical strings (idempotence).
//  2. Canonical is a faithful encoding: configs are equal (Go ==, the
//     tree is plain comparable structs) iff their canonical strings are
//     equal, and equal canonical forms iff equal fingerprints.
//  3. Fingerprints are collision-free across the population: distinct
//     canonical forms never share a fingerprint (FNV-64 collisions are
//     possible in principle; the disk tier therefore keys by Canonical,
//     and this property keeps Fingerprint honest as an output label).
//  4. Both are byte-identical to their fmt reference implementations,
//     so labels and persisted entry names never drift.
func TestCanonicalFingerprintProperties(t *testing.T) {
	r := rand.New(rand.NewSource(20080216)) // HPCA 2008
	population := make([]Config, 0, 600)
	for i := 0; i < 300; i++ {
		population = append(population, randConfig(r))
	}
	// Duplicate a third of the population so the equality direction of
	// property 2 is exercised by construction.
	population = append(population, population[:100]...)

	byFingerprint := map[string]string{} // fingerprint -> canonical
	byCanonical := map[string]Config{}   // canonical -> config
	for i, c := range population {
		canon, fp := c.Canonical(), c.Fingerprint()
		if c.Canonical() != canon || c.Fingerprint() != fp {
			t.Fatalf("config %d: Canonical/Fingerprint not idempotent", i)
		}
		checkReference(t, c)
		if prev, ok := byCanonical[canon]; ok {
			if prev != c {
				t.Fatalf("config %d: unequal configs share canonical form:\n%s", i, canon)
			}
		} else {
			for pc, pcfg := range byCanonical {
				if pcfg == c {
					t.Fatalf("config %d: equal configs render distinct canonical forms:\n%s\n%s", i, pc, canon)
				}
			}
			byCanonical[canon] = c
		}
		if prev, ok := byFingerprint[fp]; ok {
			if prev != canon {
				t.Fatalf("fingerprint collision %s:\n%s\n%s", fp, prev, canon)
			}
		} else {
			byFingerprint[fp] = canon
		}
	}
	if len(byFingerprint) != len(byCanonical) {
		t.Fatalf("%d canonical forms vs %d fingerprints", len(byCanonical), len(byFingerprint))
	}
	if len(byCanonical) < 100 {
		t.Fatalf("population degenerate: only %d distinct configs", len(byCanonical))
	}
}

// referenceCanonical and referenceFingerprint are the fmt renderings
// Canonical and Fingerprint must reproduce byte for byte.
func referenceCanonical(c Config) string { return fmt.Sprintf("%+v", c) }

func referenceFingerprint(c Config) string {
	h := fnv.New64a()
	h.Write([]byte(referenceCanonical(c)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkReference fails the test unless c's Canonical and Fingerprint
// equal their fmt references.
func checkReference(t *testing.T, c Config) {
	t.Helper()
	if got, want := c.Canonical(), referenceCanonical(c); got != want {
		t.Fatalf("Canonical differs from %%+v:\n got %q\nwant %q", got, want)
	}
	if got, want := c.Fingerprint(), referenceFingerprint(c); got != want {
		t.Fatalf("Fingerprint = %s, want %s (fnv64a of %%+v)", got, want)
	}
}

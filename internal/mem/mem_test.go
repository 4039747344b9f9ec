package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func smallCache() CacheConfig {
	return CacheConfig{Name: "test", SizeBytes: 1024, Ways: 2, LineBytes: 64, Latency: 1}
}

func TestCacheConfigValidate(t *testing.T) {
	good := smallCache()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []CacheConfig{
		{Name: "zero"},
		{Name: "line", SizeBytes: 1024, Ways: 2, LineBytes: 48},
		{Name: "sets", SizeBytes: 3 * 64, Ways: 1, LineBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted, want error", c.Name)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(smallCache())
	if c.Access(0x1000) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000)
	if !c.Access(0x1000) {
		t.Fatal("miss after fill")
	}
	if !c.Access(0x103f) {
		t.Fatal("miss within same line")
	}
	if c.Access(0x1040) {
		t.Fatal("hit on adjacent line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill three lines mapping to one set; the least recently
	// used must be evicted.
	c := NewCache(smallCache())
	sets := uint64(1024 / 64 / 2)
	stride := sets * 64 // same set, different tag
	a, b, d := uint64(0x10000), 0x10000+stride, 0x10000+2*stride
	c.Fill(a)
	c.Fill(b)
	c.Access(a) // make a more recent than b
	c.Fill(d)
	if !c.Lookup(a) {
		t.Fatal("recently used line evicted")
	}
	if c.Lookup(b) {
		t.Fatal("LRU line survived eviction")
	}
	if !c.Lookup(d) {
		t.Fatal("new line not present")
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	// Property: after arbitrary fills, the number of valid lines never
	// exceeds capacity, and all tags within a set are distinct.
	f := func(seed uint64) bool {
		c := NewCache(smallCache())
		r := rng.New(seed)
		for i := 0; i < 500; i++ {
			c.Fill(r.Uint64n(1<<20) &^ 63)
		}
		valid := 0
		for base := 0; base < len(c.keys); base += c.ways {
			seen := map[uint64]bool{}
			for _, k := range c.keys[base : base+c.ways] {
				if k != 0 {
					valid++
					if seen[k] {
						return false // duplicate tag in a set
					}
					seen[k] = true
				}
			}
		}
		return valid <= 1024/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	// Cold: miss everywhere, 3 + 20 + 400.
	r := h.Access(KindLoad, 0, 0x100000, 100)
	if r.Level != LevelMemory {
		t.Fatalf("cold access level = %v", r.Level)
	}
	if want := uint64(100 + 3 + 20 + 400); r.DoneAt != want {
		t.Fatalf("cold access done at %d, want %d", r.DoneAt, want)
	}
	// After fill time: L1 hit.
	r2 := h.Access(KindLoad, 0, 0x100000, r.DoneAt+1)
	if r2.Level != LevelL1 || r2.DoneAt != r.DoneAt+1+3 {
		t.Fatalf("post-fill access = %+v", r2)
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.Access(KindLoad, 0, 0x200000, 0)
	// Wait for fill, then evict from DL1 by filling conflicting lines.
	now := uint64(1000)
	h.drain(now)
	// Touch enough distinct lines mapping to the same DL1 set to evict.
	dl1Sets := cfg.DL1.SizeBytes / cfg.DL1.LineBytes / uint64(cfg.DL1.Ways)
	stride := dl1Sets * cfg.DL1.LineBytes
	for i := uint64(1); i <= 4; i++ {
		h.dl1.Fill(0x200000 + i*stride)
	}
	if h.dl1.Lookup(0x200000) {
		t.Fatal("line still in DL1 after conflict fills")
	}
	r := h.Access(KindLoad, 0, 0x200000, now)
	if r.Level != LevelL2 {
		t.Fatalf("expected L2 hit, got %v", r.Level)
	}
	if want := now + 3 + 20; r.DoneAt != want {
		t.Fatalf("L2 hit done at %d, want %d", r.DoneAt, want)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	r1 := h.Access(KindLoad, 0, 0x300000, 10)
	r2 := h.Access(KindLoad, 1, 0x300008, 50) // same line, later
	if !r2.Merged {
		t.Fatal("second miss did not merge")
	}
	if r2.DoneAt != r1.DoneAt || r2.Level != LevelMemory {
		t.Fatalf("merged miss %+v, original completes at %d", r2, r1.DoneAt)
	}
	if n := len(h.mshrs); n != 1 {
		t.Fatalf("%d MSHRs outstanding after a merge, want 1", n)
	}
}

func TestPrefetchThenDemandMerge(t *testing.T) {
	// The runahead pattern: prefetch allocates the MSHR, demand access
	// merges and completes at the prefetch's fill time.
	h := NewHierarchy(DefaultConfig())
	p := h.Access(KindPrefetch, 0, 0x400000, 0)
	if p.Level != LevelMemory {
		t.Fatalf("prefetch level = %v", p.Level)
	}
	if h.PrefetchIssue != 1 {
		t.Fatal("prefetch issue not counted")
	}
	d := h.Access(KindLoad, 0, 0x400000, 200)
	if !d.Merged || d.DoneAt != p.DoneAt || d.Level != LevelMemory {
		t.Fatalf("demand after prefetch: %+v (prefetch done %d)", d, p.DoneAt)
	}
	if n := len(h.mshrs); n != 1 {
		t.Fatalf("%d MSHRs outstanding after the demand merged, want 1", n)
	}
	// After the fill, a demand access hits in DL1.
	d2 := h.Access(KindLoad, 0, 0x400000, p.DoneAt+10)
	if d2.Level != LevelL1 {
		t.Fatalf("post-fill level = %v", d2.Level)
	}
}

func TestPrefetchHitInL2Promotes(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	// Install a line in L2 only.
	h.l2.Fill(0x500000)
	r := h.Access(KindPrefetch, 0, 0x500000, 0)
	if r.Level != LevelL2 {
		t.Fatalf("prefetch level = %v", r.Level)
	}
	if !h.dl1.Lookup(0x500000) {
		t.Fatal("prefetch did not promote line into DL1")
	}
}

func TestMSHRExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	h := NewHierarchy(cfg)
	h.Access(KindLoad, 0, 0x10000, 0)
	h.Access(KindLoad, 0, 0x20000, 0)
	r := h.Access(KindLoad, 0, 0x30000, 0)
	if !r.NoMSHR || r.Level != LevelMemory || r.Merged {
		t.Fatalf("third concurrent miss with 2 MSHRs: %+v, want NoMSHR", r)
	}
	if n := len(h.mshrs); n != 2 {
		t.Fatalf("%d MSHRs outstanding after a reject, want 2", n)
	}
	// A miss to a line already outstanding still merges when every MSHR
	// is busy.
	if m := h.Access(KindLoad, 1, 0x10008, 1); !m.Merged || m.NoMSHR {
		t.Fatalf("merge with every MSHR busy: %+v", m)
	}
	// After the fills drain, new misses are accepted again.
	r2 := h.Access(KindLoad, 0, 0x30000, 10_000)
	if r2.NoMSHR {
		t.Fatal("miss rejected after MSHRs drained")
	}
}

// TestDrainStaggeredFills: fills apply exactly at their fillAt, in any
// allocation order. An ifetch MSHR allocated after a load fills first (its
// L1 latency is shorter), so drain's early-out must track the earliest
// fill, not the latest allocation. An access at fillAt-1 still merges into
// the MSHR; at fillAt the line is installed, and the later MSHRs, including
// an untouched prefetch, stay outstanding until their own cycles.
func TestDrainStaggeredFills(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	const load, code, pref, probe = 0x1000_0000, 0x2000_0000, 0x3000_0000, 0x4000_0000
	h.Prewarm(KindLoad, 0, probe)
	// drainAt triggers a drain at now through an L1 hit on an unrelated
	// line, so the probed lines see no access of their own.
	drainAt := func(now uint64) {
		t.Helper()
		if r := h.Access(KindLoad, 0, probe, now); r.Level != LevelL1 {
			t.Fatalf("probe at %d: level %v, want L1", now, r.Level)
		}
	}
	expect := func(now uint64, kind Kind, addr uint64, want Level, merged bool) {
		t.Helper()
		r := h.Access(kind, 0, addr, now)
		if r.Level != want || r.Merged != merged {
			t.Fatalf("%v %#x at %d: level %v merged %v, want %v merged %v",
				kind, addr, now, r.Level, r.Merged, want, merged)
		}
	}
	outstanding := func(now uint64, want int) {
		t.Helper()
		if got := len(h.mshrs); got != want {
			t.Fatalf("at %d: %d MSHRs outstanding, want %d", now, got, want)
		}
	}

	fillLoad := h.Access(KindLoad, 0, load, 0).DoneAt
	fillCode := h.Access(KindIfetch, 1, code, 1).DoneAt
	fillPref := h.Access(KindPrefetch, 0, pref, 10).DoneAt
	if !(fillCode < fillLoad && fillLoad < fillPref) {
		t.Fatalf("fills at code %d, load %d, prefetch %d: want code < load < prefetch", fillCode, fillLoad, fillPref)
	}
	if r := h.Access(KindLoad, 1, load+8, 5); !r.Merged || r.DoneAt != fillLoad {
		t.Fatalf("merge into the load's MSHR: %+v, want merged done at %d", r, fillLoad)
	}

	expect(fillCode-1, KindIfetch, code, LevelMemory, true)
	outstanding(fillCode-1, 3)
	expect(fillCode, KindIfetch, code, LevelL1, false)
	outstanding(fillCode, 2)
	expect(fillLoad-1, KindLoad, load, LevelMemory, true)
	outstanding(fillLoad-1, 2)
	expect(fillLoad, KindLoad, load+8, LevelL1, false)
	outstanding(fillLoad, 1)

	drainAt(fillPref - 1)
	if h.dl1.Lookup(pref) || h.l2.Lookup(pref) {
		t.Fatalf("prefetched line installed at %d, before its fill at %d", fillPref-1, fillPref)
	}
	outstanding(fillPref-1, 1)
	drainAt(fillPref)
	if !h.dl1.Lookup(pref) || !h.l2.Lookup(pref) {
		t.Fatalf("prefetched line not installed at its fill %d", fillPref)
	}
	outstanding(fillPref, 0)

	// With every MSHR drained, a new miss fills on its own schedule.
	next := h.Access(KindLoad, 0, load+4096, fillPref+1).DoneAt
	expect(next-1, KindLoad, load+4096, LevelMemory, true)
	expect(next, KindLoad, load+4096, LevelL1, false)
}

func TestIfetchPath(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	r := h.Access(KindIfetch, 0, 0x40_0000, 0)
	if r.Level != LevelMemory {
		t.Fatalf("cold ifetch level = %v", r.Level)
	}
	r2 := h.Access(KindIfetch, 0, 0x40_0000, r.DoneAt+1)
	if r2.Level != LevelL1 {
		t.Fatalf("warm ifetch level = %v (IL1 fill missing)", r2.Level)
	}
	// Ifetch must fill the IL1, not the DL1.
	if h.dl1.Lookup(0x40_0000) {
		t.Fatal("ifetch filled the data cache")
	}
}

func TestStoreWriteAllocate(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	r := h.Access(KindStore, 0, 0x700000, 0)
	if r.Level != LevelMemory {
		t.Fatalf("cold store level = %v", r.Level)
	}
	h.drain(r.DoneAt + 1)
	if !h.dl1.Lookup(0x700000) {
		t.Fatal("store miss did not write-allocate")
	}
}

func TestHierarchyPanicsOnBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero MSHRs accepted")
		}
	}()
	NewHierarchy(cfg)
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(8 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(KindLoad, i&3, addrs[i&4095], uint64(i))
	}
}

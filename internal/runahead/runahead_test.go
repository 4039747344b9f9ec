package runahead

import "testing"

func TestDefaultConfig(t *testing.T) {
	c := Default()
	if !c.Enabled || !c.Prefetch || !c.FetchInRunahead || !c.InvalidateFP {
		t.Fatal("default config must enable RaT with prefetch, fetch, FP invalidation")
	}
	if c.UseRunaheadCache {
		t.Fatal("paper's configuration omits the runahead cache")
	}
	if c.ExitPenalty == 0 {
		t.Fatal("exit penalty must be non-zero")
	}
}

func TestDisabled(t *testing.T) {
	if Disabled().Enabled {
		t.Fatal("Disabled() returned enabled config")
	}
}

func TestCacheStoreLoadForwarding(t *testing.T) {
	c := NewCache(64)
	c.RecordStore(0, 0x1000, false)
	found, inv := c.LookupLoad(0, 0x1000)
	if !found || inv {
		t.Fatalf("valid store forward: found=%v inv=%v", found, inv)
	}
	c.RecordStore(0, 0x2000, true)
	found, inv = c.LookupLoad(0, 0x2000)
	if !found || !inv {
		t.Fatalf("INV store forward: found=%v inv=%v", found, inv)
	}
}

func TestCachePerThreadTags(t *testing.T) {
	// The paper notes a shared runahead cache needs per-thread tags: thread
	// 1 must not forward from thread 0's store.
	c := NewCache(64)
	c.RecordStore(0, 0x1000, false)
	if found, _ := c.LookupLoad(1, 0x1000); found {
		t.Fatal("cross-thread forwarding")
	}
}

func TestCacheMiss(t *testing.T) {
	c := NewCache(64)
	if found, _ := c.LookupLoad(0, 0x5000); found {
		t.Fatal("cold lookup hit")
	}
}

func TestCacheConflict(t *testing.T) {
	c := NewCache(4) // tiny: lines 0x000 and 0x100 collide (4 slots)
	c.RecordStore(0, 0x000, false)
	c.RecordStore(0, 0x100, true) // same index (line>>6 = 0 and 4; 4&3=0)
	if found, _ := c.LookupLoad(0, 0x000); found {
		t.Fatal("evicted entry still found")
	}
	if found, inv := c.LookupLoad(0, 0x100); !found || !inv {
		t.Fatalf("conflicting store not installed: found=%v inv=%v", found, inv)
	}
	if c.entries[0] != (CacheEntry{lineAddr: 0x100, valid: true, inv: true}) {
		t.Fatalf("slot 0 = %+v, want the second store", c.entries[0])
	}
}

func TestCacheFlushThread(t *testing.T) {
	c := NewCache(64)
	c.RecordStore(0, 0x1000, false)
	c.RecordStore(1, 0x2000, false)
	c.FlushThread(0)
	if found, _ := c.LookupLoad(0, 0x1000); found {
		t.Fatal("flushed entry survived")
	}
	if found, _ := c.LookupLoad(1, 0x2000); !found {
		t.Fatal("other thread's entry flushed")
	}
}

func TestCacheSizeRoundsUp(t *testing.T) {
	if got := len(NewCache(100).entries); got != 128 {
		t.Fatalf("size = %d, want 128", got)
	}
}

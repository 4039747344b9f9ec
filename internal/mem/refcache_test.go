package mem

import (
	"testing"

	"repro/internal/rng"
)

// refCache is the array-of-structs cache the flat Cache replaced, kept as
// the reference its hit, victim and LRU behaviour must match exactly.
type refCache struct {
	sets      [][]refLine
	setMask   uint64
	lineShift uint
	useClock  uint64
}

type refLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	c := &refCache{sets: make([][]refLine, sets), setMask: sets - 1}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

func (c *refCache) locate(addr uint64) (set, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l
}

func (c *refCache) Lookup(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Access(addr uint64) bool {
	c.useClock++
	set, tag := c.locate(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.useClock
			return true
		}
	}
	return false
}

func (c *refCache) Fill(addr uint64) {
	c.useClock++
	set, tag := c.locate(addr)
	ways := c.sets[set]
	victim := 0
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.useClock
			return
		}
		if !ln.valid {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	ways[victim] = refLine{tag: tag, valid: true, lastUse: c.useClock}
}

// TestCacheMatchesReference drives the flat cache and the reference with
// the same seeded Access/Fill/Lookup streams and compares every result and,
// after each operation, every way of the touched set: same line in the same
// way with the same LRU stamp means the same victims.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []CacheConfig{
		{Name: "direct", SizeBytes: 16 * 64, Ways: 1, LineBytes: 64},
		{Name: "2way", SizeBytes: 32 * 64, Ways: 2, LineBytes: 64},
		{Name: "8way", SizeBytes: 64 * 32, Ways: 8, LineBytes: 32},
	}
	for _, cfg := range geoms {
		for seed := uint64(1); seed <= 4; seed++ {
			c, ref := NewCache(cfg), newRefCache(cfg)
			r := rng.New(seed)
			// Addresses span four times the capacity, so sets fill,
			// conflict and evict.
			span := 4 * cfg.SizeBytes
			for step := 0; step < 20000; step++ {
				addr := r.Uint64n(span)
				var got, want bool
				switch op := r.Intn(3); op {
				case 0:
					got, want = c.Access(addr), ref.Access(addr)
				case 1:
					c.Fill(addr)
					ref.Fill(addr)
				default:
					got, want = c.Lookup(addr), ref.Lookup(addr)
				}
				if got != want {
					t.Fatalf("%s seed %d step %d addr %#x: hit %v, reference %v", cfg.Name, seed, step, addr, got, want)
				}
				base, _ := c.locate(addr)
				set, _ := ref.locate(addr)
				for i, ln := range ref.sets[set] {
					key := uint64(0)
					if ln.valid {
						key = ln.tag + 1
					}
					if c.keys[base+i] != key || c.lastUse[base+i] != ln.lastUse {
						t.Fatalf("%s seed %d step %d: set %d way %d holds key %#x use %d, reference key %#x use %d",
							cfg.Name, seed, step, set, i, c.keys[base+i], c.lastUse[base+i], key, ln.lastUse)
					}
				}
			}
		}
	}
}

// Package mem models the simulated memory hierarchy of Table 1: a 64KB
// 4-way instruction cache, a 64KB 4-way data cache, a shared 1MB 8-way L2,
// and a flat 400-cycle main memory, all with 64-byte lines.
//
// The model is latency-based rather than event-driven: an access performed
// at cycle `now` immediately returns the cycle at which its data will be
// available, and outstanding misses are tracked in MSHRs so that later
// accesses to the same line merge instead of paying the full latency again.
// MSHR merging is load-bearing for this paper: a runahead prefetch
// allocates the MSHR early, and the demand access issued after the thread
// exits runahead mode merges into it, which is exactly how runahead
// execution converts isolated stalls into overlapped ones.
package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Name labels the level in errors and in a configuration's canonical
	// form.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes uint64
	// Ways is the set associativity.
	Ways int
	// LineBytes is the line size (64 in Table 1).
	LineBytes uint64
	// Latency is the access latency in cycles.
	Latency uint64
}

// Validate checks the configuration for coherence.
func (c CacheConfig) Validate() error {
	if c.SizeBytes == 0 || c.Ways <= 0 || c.LineBytes == 0 {
		return fmt.Errorf("mem: %s: zero size, ways or line", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("mem: %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("mem: %s: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: %d sets not a power of two", c.Name, sets)
	}
	return nil
}

// Cache is one set-associative, write-allocate cache level with LRU
// replacement. Write-backs cost no time in the model, so a line carries no
// dirty bit.
//
// Ways are stored flat and set-major: way i of set s is index s*ways+i of
// keys and lastUse. A way's key is its line address plus one, and key 0
// marks an invalid way, so a tag scan reads only keys (one 64-byte host
// line for an 8-way set). The one line address whose key would wrap to 0,
// 2^64-1 under 1-byte lines, lies far outside every generated trace's code
// and data regions.
type Cache struct {
	cfg       CacheConfig
	keys      []uint64
	lastUse   []uint64 // LRU timestamp per way
	ways      int
	setMask   uint64
	lineShift uint
	useClock  uint64
}

// NewCache builds a cache; it panics on an invalid configuration, which
// pipeline.Config.Validate rejects first.
func NewCache(cfg CacheConfig) *Cache {
	c := &Cache{}
	c.reset(cfg)
	return c
}

// reset rebuilds c as NewCache(cfg) builds it, every way invalid, keeping
// its tag and LRU arrays when cfg's line count fits in them.
func (c *Cache) reset(cfg CacheConfig) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	keys, lastUse := c.keys, c.lastUse
	if uint64(cap(keys)) >= lines {
		keys, lastUse = keys[:lines], lastUse[:lines]
		clear(keys)
		clear(lastUse)
	} else {
		keys, lastUse = make([]uint64, lines), make([]uint64, lines)
	}
	*c = Cache{
		cfg:     cfg,
		keys:    keys,
		lastUse: lastUse,
		ways:    cfg.Ways,
		setMask: lines/uint64(cfg.Ways) - 1,
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (c.cfg.LineBytes - 1)
}

// locate returns the index of addr's set's first way and addr's key. The
// full line address serves as the tag: simple and unambiguous.
func (c *Cache) locate(addr uint64) (base int, key uint64) {
	l := addr >> c.lineShift
	return int(l&c.setMask) * c.ways, l + 1
}

// Lookup probes the cache without modifying replacement state. It returns
// whether the line is present.
func (c *Cache) Lookup(addr uint64) bool {
	base, key := c.locate(addr)
	for _, k := range c.keys[base : base+c.ways] {
		if k == key {
			return true
		}
	}
	return false
}

// Access probes the cache for a demand access, updating LRU state. It
// returns hit=true when the line is present.
func (c *Cache) Access(addr uint64) (hit bool) {
	c.useClock++
	base, key := c.locate(addr)
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			c.lastUse[base+i] = c.useClock
			return true
		}
	}
	return false
}

// Fill installs the line containing addr, evicting the LRU way.
func (c *Cache) Fill(addr uint64) {
	c.useClock++
	base, key := c.locate(addr)
	keys := c.keys[base : base+c.ways]
	use := c.lastUse[base : base+c.ways]
	victim := 0
	for i, k := range keys {
		if k == key {
			// Already present (racing fills); refresh.
			use[i] = c.useClock
			return
		}
		if k == 0 {
			victim = i
			break
		}
		if use[i] < use[victim] {
			victim = i
		}
	}
	keys[victim] = key
	use[victim] = c.useClock
}

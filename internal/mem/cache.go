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

// line is one cache line's bookkeeping.
type line struct {
	tag     uint64
	valid   bool
	lastUse uint64 // LRU timestamp
}

// Cache is one set-associative, write-allocate cache level with LRU
// replacement. Write-backs cost no time in the model, so a line carries no
// dirty bit.
type Cache struct {
	cfg       CacheConfig
	sets      [][]line
	setMask   uint64
	lineShift uint
	useClock  uint64
}

// NewCache builds a cache; it panics on invalid configuration (cache
// geometries are static data, so misconfiguration is a programming error).
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		//lint:panicfree documented constructor contract: cache geometries are compiled-in static data, so an invalid one is a programming error, not an input error
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    make([][]line, sets),
		setMask: sets - 1,
	}
	backing := make([]line, lines)
	for i := range c.sets {
		c.sets[i] = backing[uint64(i)*uint64(cfg.Ways) : (uint64(i)+1)*uint64(cfg.Ways)]
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (c.cfg.LineBytes - 1)
}

// locate returns the set index and tag for addr. The full line address
// serves as the tag: simple and unambiguous.
func (c *Cache) locate(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setMask, l
}

// Lookup probes the cache without modifying replacement state. It returns
// whether the line is present.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range c.sets[set] {
		if c.sets[set][i].valid && c.sets[set][i].tag == tag {
			return true
		}
	}
	return false
}

// Access probes the cache for a demand access, updating LRU state. It
// returns hit=true when the line is present.
func (c *Cache) Access(addr uint64) (hit bool) {
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

// Fill installs the line containing addr, evicting the LRU way.
func (c *Cache) Fill(addr uint64) {
	c.useClock++
	set, tag := c.locate(addr)
	ways := c.sets[set]
	victim := 0
	for i := range ways {
		ln := &ways[i]
		if ln.valid && ln.tag == tag {
			// Already present (racing fills); refresh.
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
	ways[victim] = line{tag: tag, valid: true, lastUse: c.useClock}
}

// Package runahead holds the Runahead Threads (RaT) mechanism's
// configuration and the runahead cache.
//
// RaT (the paper's contribution, §3) turns a thread that blocks the shared
// pipeline on a long-latency L2 miss into a speculative "light" thread:
// the blocked load's destination is poisoned with an INV bit, the thread's
// architectural state is checkpointed, and the thread keeps fetching and
// executing down its predicted path, pseudo-retiring instructions from the
// ROB head instead of committing them. Valid instructions execute normally
// (but never update architectural state); instructions that touch an INV
// register are folded — never executed — and release their resources
// immediately. Loads that miss the L2 during runahead become prefetches.
// When the triggering miss resolves, the thread restores its checkpoint and
// re-executes from the load, which now hits.
//
// The INV-propagation and pseudo-retire mechanics live in the pipeline
// (they are pipeline stages); this package owns everything that is
// *configuration or policy* about runahead, so ablation experiments
// (Figure 4, the runahead-cache study, the FP-invalidation study) are
// plain configuration changes.
package runahead

// Config selects runahead behaviour. The zero value disables runahead
// entirely (the baseline configurations).
type Config struct {
	// Enabled turns the RaT mechanism on.
	Enabled bool
	// Prefetch allows runahead memory accesses to reach the L2 and main
	// memory. Disabling it reproduces Figure 4's "RaT without prefetching"
	// experiment: threads still enter runahead for identical periods, but
	// L2-missing runahead loads are invalidated without touching memory,
	// and — as the paper specifies — the loads seen during such episodes
	// are tracked so they do not re-trigger runahead after recovery.
	Prefetch bool
	// FetchInRunahead lets a runahead thread keep fetching new
	// instructions. Disabling it reproduces Figure 4's "resource
	// availability" experiment: the thread enters runahead (releasing the
	// resources of already-fetched instructions through pseudo-retirement)
	// but fetches nothing new, so any remaining benefit comes from the
	// resources it frees for other threads.
	FetchInRunahead bool
	// InvalidateFP applies §3.3's floating-point invalidation: FP
	// arithmetic in a runahead thread is invalidated at decode and consumes
	// no FP issue queue entries, functional units, or registers. FP loads
	// and stores still execute (their addresses come from the integer
	// pipeline) so prefetching is unaffected.
	InvalidateFP bool
	// UseRunaheadCache enables the Mutlu-style runahead cache for
	// store-to-load communication during runahead. The paper measures it
	// and decides to omit it (§3.3); it is implemented here so that the
	// ablation is reproducible.
	UseRunaheadCache bool
	// ExitPenalty is the pipeline refill/restore cost in cycles paid when
	// leaving runahead mode.
	ExitPenalty uint64
}

// Default returns the paper's RaT configuration: runahead on, prefetching
// on, fetch allowed, FP invalidation on, no runahead cache.
func Default() Config {
	return Config{
		Enabled:          true,
		Prefetch:         true,
		FetchInRunahead:  true,
		InvalidateFP:     true,
		UseRunaheadCache: false,
		ExitPenalty:      4,
	}
}

// Disabled returns the configuration with runahead fully off.
func Disabled() Config { return Config{} }

// --- Runahead cache ----------------------------------------------------------

// CacheEntry is one runahead-cache line: the store's line address, its
// owner thread (the paper notes a shared runahead cache needs per-thread
// tags), and whether the stored data was INV.
type CacheEntry struct {
	lineAddr uint64
	tid      uint8
	valid    bool
	inv      bool
}

// Cache is a small direct-mapped runahead cache shared by all threads,
// following Mutlu et al.: runahead stores record their target line and
// data validity; runahead loads that hit a same-thread entry inherit the
// stored data's validity instead of accessing memory.
type Cache struct {
	entries []CacheEntry
	mask    uint64
}

// NewCache builds a runahead cache with the given number of entries
// (rounded up to a power of two).
func NewCache(entries int) *Cache {
	c := &Cache{}
	c.Reset(entries)
	return c
}

// Reset rebuilds c as NewCache(entries) builds it, every slot empty,
// keeping its storage when the slots fit in it.
func (c *Cache) Reset(entries int) {
	n := 1
	for n < entries {
		n <<= 1
	}
	if cap(c.entries) >= n {
		c.entries = c.entries[:n]
		clear(c.entries)
	} else {
		c.entries = make([]CacheEntry, n)
	}
	c.mask = uint64(n - 1)
}

// index maps a line address to a slot.
func (c *Cache) index(lineAddr uint64) uint64 { return (lineAddr >> 6) & c.mask }

// RecordStore installs a runahead store's line. invData records whether
// the stored value was INV (a load forwarding from it must be poisoned).
func (c *Cache) RecordStore(tid int, lineAddr uint64, invData bool) {
	c.entries[c.index(lineAddr)] = CacheEntry{lineAddr: lineAddr, tid: uint8(tid), valid: true, inv: invData}
}

// LookupLoad checks whether a runahead load forwards from a prior runahead
// store by the same thread. It returns (found, inv).
func (c *Cache) LookupLoad(tid int, lineAddr uint64) (found, inv bool) {
	e := &c.entries[c.index(lineAddr)]
	if e.valid && e.lineAddr == lineAddr && int(e.tid) == tid {
		return true, e.inv
	}
	return false, false
}

// FlushThread removes all entries belonging to tid, called when that
// thread exits runahead mode (its speculative stores die with the episode).
func (c *Cache) FlushThread(tid int) {
	for i := range c.entries {
		if c.entries[i].valid && int(c.entries[i].tid) == tid {
			c.entries[i] = CacheEntry{}
		}
	}
}

package mem

import (
	"fmt"
	"math"
)

// Kind classifies a memory access.
type Kind uint8

const (
	// KindLoad is a demand data read.
	KindLoad Kind = iota
	// KindStore is a demand data write (write-allocate).
	KindStore
	// KindIfetch is an instruction fetch.
	KindIfetch
	// KindPrefetch is a speculative read issued by a runahead thread; it
	// fills caches but never touches their LRU state on a hit.
	KindPrefetch
)

// String names the access kind.
func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindIfetch:
		return "ifetch"
	case KindPrefetch:
		return "prefetch"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Level identifies which level of the hierarchy served an access.
type Level uint8

const (
	// LevelL1 means the access hit in the first-level cache.
	LevelL1 Level = iota
	// LevelL2 means the access missed L1 and hit the shared L2.
	LevelL2
	// LevelMemory means the access missed the L2 and went to main memory.
	// This is the paper's "long-latency" condition: the trigger for
	// STALL/FLUSH gating and for entering runahead mode.
	LevelMemory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "mem"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Result reports the outcome of an access.
type Result struct {
	// DoneAt is the cycle at which the data is available.
	DoneAt uint64
	// Level is the hierarchy level that served the access.
	Level Level
	// Merged reports that the access merged into an MSHR allocated by an
	// earlier miss (possibly a prefetch) to the same line.
	Merged bool
	// NoMSHR reports that the access could not be performed because all
	// MSHRs were busy; the caller must retry on a later cycle.
	NoMSHR bool
}

// mshr tracks one outstanding miss to main memory.
type mshr struct {
	lineAddr uint64
	fillAt   uint64
	ifetch   bool
}

// Config describes the whole hierarchy.
type Config struct {
	IL1, DL1, L2 CacheConfig
	// MemLatency is the flat main-memory latency in cycles (400 in Table 1).
	MemLatency uint64
	// MSHRs is the number of outstanding L2 misses supported.
	MSHRs int
}

// DefaultConfig returns the Table 1 memory subsystem.
func DefaultConfig() Config {
	return Config{
		IL1:        CacheConfig{Name: "IL1", SizeBytes: 64 << 10, Ways: 4, LineBytes: 64, Latency: 1},
		DL1:        CacheConfig{Name: "DL1", SizeBytes: 64 << 10, Ways: 4, LineBytes: 64, Latency: 3},
		L2:         CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, Latency: 20},
		MemLatency: 400,
		MSHRs:      64,
	}
}

// Hierarchy is the shared SMT memory subsystem: private-per-port L1s in
// real designs are shared across contexts in the paper's model, so here a
// single IL1, DL1 and L2 serve all threads.
type Hierarchy struct {
	cfg Config
	il1 *Cache
	dl1 *Cache
	l2  *Cache

	mshrs []mshr
	// nextFill is the earliest fillAt among mshrs (MaxUint64 when none is
	// outstanding): drain has nothing to apply before it.
	nextFill uint64

	// PrefetchIssue counts prefetches that allocated an MSHR.
	PrefetchIssue uint64
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(cfg)
	return h
}

// Reset rebuilds h as NewHierarchy(cfg) builds it: every cache empty, no
// miss outstanding, counters zero. A cache keeps its tag and LRU arrays,
// and the MSHR file its storage, wherever cfg's sizes fit in them.
func (h *Hierarchy) Reset(cfg Config) {
	// pipeline.Config.Validate rejects both first.
	if cfg.MSHRs <= 0 {
		panic("mem: need at least one MSHR")
	}
	if cfg.MemLatency == 0 {
		panic("mem: zero memory latency")
	}
	il1, dl1, l2, mshrs := h.il1, h.dl1, h.l2, h.mshrs
	if il1 == nil {
		il1, dl1, l2 = &Cache{}, &Cache{}, &Cache{}
	}
	il1.reset(cfg.IL1)
	dl1.reset(cfg.DL1)
	l2.reset(cfg.L2)
	if cap(mshrs) < cfg.MSHRs {
		mshrs = make([]mshr, 0, cfg.MSHRs)
	}
	*h = Hierarchy{
		cfg:      cfg,
		il1:      il1,
		dl1:      dl1,
		l2:       l2,
		mshrs:    mshrs[:0],
		nextFill: math.MaxUint64,
	}
}

// DL1 returns the data cache.
func (h *Hierarchy) DL1() *Cache { return h.dl1 }

// drain applies all MSHR fills that have completed by cycle now, installing
// their lines into the caches in MSHR order. Called lazily at each access;
// correctness relies on callers presenting non-decreasing `now` values,
// which the cycle-driven pipeline guarantees. Before nextFill no MSHR can
// fill, so most calls return without walking them; the walk that does run
// recomputes nextFill from the MSHRs it keeps.
func (h *Hierarchy) drain(now uint64) {
	if now < h.nextFill {
		return
	}
	next := uint64(math.MaxUint64)
	kept := h.mshrs[:0]
	for _, m := range h.mshrs {
		if m.fillAt > now {
			kept = append(kept, m)
			next = min(next, m.fillAt)
			continue
		}
		h.l2.Fill(m.lineAddr)
		if m.ifetch {
			h.il1.Fill(m.lineAddr)
		} else {
			h.dl1.Fill(m.lineAddr)
		}
	}
	h.mshrs = kept
	h.nextFill = next
}

// findMSHR returns the outstanding miss covering lineAddr, if any.
func (h *Hierarchy) findMSHR(lineAddr uint64) *mshr {
	for i := range h.mshrs {
		if h.mshrs[i].lineAddr == lineAddr {
			return &h.mshrs[i]
		}
	}
	return nil
}

// Access performs a memory access at cycle now and returns its timing.
// The hierarchy is thread-agnostic: every context shares the same caches
// and MSHRs, and tid does not affect the result. Prefetches allocate MSHRs
// and fill caches but leave LRU state untouched on a hit.
func (h *Hierarchy) Access(kind Kind, tid int, addr uint64, now uint64) Result {
	h.drain(now)

	l1 := h.dl1
	if kind == KindIfetch {
		l1 = h.il1
	}
	demand := kind != KindPrefetch
	lineAddr := h.l2.LineAddr(addr)

	// L1 probe.
	if demand {
		if l1.Access(addr) {
			return Result{DoneAt: now + l1.cfg.Latency, Level: LevelL1}
		}
	} else if l1.Lookup(addr) {
		return Result{DoneAt: now + l1.cfg.Latency, Level: LevelL1}
	}

	// L2 probe.
	if demand {
		if h.l2.Access(addr) {
			done := now + l1.cfg.Latency + h.l2.cfg.Latency
			l1.Fill(lineAddr)
			return Result{DoneAt: done, Level: LevelL2}
		}
	} else if h.l2.Lookup(addr) {
		// A prefetch that hits in L2 promotes the line into the L1 so the
		// post-runahead demand access hits close to the core.
		l1.Fill(lineAddr)
		return Result{DoneAt: now + l1.cfg.Latency + h.l2.cfg.Latency, Level: LevelL2}
	}

	// Main memory: merge into an outstanding miss or allocate an MSHR. A
	// demand access that merges into an in-flight prefetch completes at
	// the prefetch's fill: the latency runahead hid.
	if m := h.findMSHR(lineAddr); m != nil {
		return Result{DoneAt: m.fillAt, Level: LevelMemory, Merged: true}
	}
	if len(h.mshrs) >= h.cfg.MSHRs {
		return Result{NoMSHR: true, Level: LevelMemory}
	}
	if !demand {
		h.PrefetchIssue++
	}
	fill := now + l1.cfg.Latency + h.l2.cfg.Latency + h.cfg.MemLatency
	h.nextFill = min(h.nextFill, fill)
	h.mshrs = append(h.mshrs, mshr{
		lineAddr: lineAddr,
		fillAt:   fill,
		ifetch:   kind == KindIfetch,
	})
	return Result{DoneAt: fill, Level: LevelMemory}
}

// Prewarm installs the line containing addr into the L2 and the L1
// appropriate for kind, without timing. Like Access it is thread-agnostic;
// tid does not affect the result. Simulation harnesses use it to start from
// a warm state, mirroring the paper's SimPoint-checkpoint methodology
// (caches are warm at the measured interval; cold-start transients are not
// part of any figure).
func (h *Hierarchy) Prewarm(kind Kind, tid int, addr uint64) {
	lineAddr := h.l2.LineAddr(addr)
	h.l2.Fill(lineAddr)
	if kind == KindIfetch {
		h.il1.Fill(lineAddr)
	} else {
		h.dl1.Fill(lineAddr)
	}
}

// Package policy implements the paper's static instruction-fetch policies:
// Round-Robin, STALL and FLUSH, and the MLP-aware fetch policy. ICOUNT
// itself lives in the pipeline package as the built-in baseline, and each
// policy here embeds pipeline.ICount for the hooks it leaves alone. STALL
// is ICOUNT with threads that have an L2 miss outstanding taken out of
// the fetch order, and FLUSH is STALL that also squashes the missing
// thread's younger instructions, exactly as in Tullsen & Brown, "Handling
// long-latency loads in a simultaneous multithreading processor", MICRO
// 2001.
package policy

import (
	"repro/internal/pipeline"
)

// RoundRobin rotates fetch priority across threads each cycle — the
// original SMT fetch scheme, provided as a comparator.
type RoundRobin struct{ pipeline.ICount }

// FetchPriority implements pipeline.Policy with a cycle-rotating order.
func (RoundRobin) FetchPriority(c *pipeline.Core, buf []int) []int {
	n := c.NumThreads()
	// Reduce in uint64 before converting: int(c.Cycle()) % n truncates on
	// 32-bit platforms and goes negative past 2^63, yielding out-of-range
	// thread indices. The modulus always fits an int.
	start := int(c.Cycle() % uint64(n))
	for i := 0; i < n; i++ {
		buf = append(buf, (start+i)%n)
	}
	return buf
}

// Stall is the STALL policy: ICOUNT fetch priority, but a thread with a
// pending L2 miss stops fetching until the miss resolves. Its already-
// allocated resources are held — the under-utilization the paper calls
// out.
type Stall struct{ pipeline.ICount }

// FetchPriority implements pipeline.Policy: ICOUNT order minus threads
// with outstanding long-latency misses.
func (Stall) FetchPriority(c *pipeline.Core, buf []int) []int {
	ordered := c.ThreadsByICount(buf)
	kept := ordered[:0]
	for _, tid := range ordered {
		if !c.PendingL2Miss(tid) {
			kept = append(kept, tid)
		}
	}
	return kept
}

// Flush is the FLUSH policy: on detecting a long-latency load, all of the
// thread's younger instructions are flushed (releasing every resource they
// held) and fetch stays blocked until the miss returns, paying a re-start
// latency. FLUSH trades re-fetch/re-execution energy for resource
// availability — the trade the paper's ED² analysis quantifies. It
// fetches in STALL's order: threads with pending misses do not fetch
// (their window was just flushed anyway).
type Flush struct{ Stall }

// flushRefill is FLUSH's extra fetch-block in cycles after the miss
// returns, modelling pipeline refill.
const flushRefill = 4

// OnL2Miss implements pipeline.Policy: flush younger instructions and
// block fetch until the load's data returns.
func (Flush) OnL2Miss(c *pipeline.Core, ld *pipeline.DynInst) {
	c.FlushAfter(ld)
	c.BlockFetchUntil(ld.Thread(), ld.DoneAt()+flushRefill)
}

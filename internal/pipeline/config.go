package pipeline

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/runahead"
)

// Config is the SMT core configuration. DefaultConfig reproduces Table 1
// of the paper.
type Config struct {
	// Width is the machine width: fetch, dispatch, issue and commit
	// bandwidth per cycle (8 in Table 1).
	Width int
	// FetchThreads is how many threads may fetch in one cycle (the 2 of
	// ICOUNT.2.8).
	FetchThreads int
	// FrontEndDepth is the fetch-to-dispatch latency in cycles; together
	// with the execution stages it models the 10-stage pipe.
	FrontEndDepth uint64
	// FetchQueue is the per-thread front-end buffer capacity.
	FetchQueue int
	// ROBSize is the shared reorder buffer capacity (512 in Table 1).
	ROBSize int
	// IntRegs and FPRegs size the shared physical register files
	// (320 / 320 in Table 1).
	IntRegs, FPRegs int
	// IntIQ, FPIQ, LSIQ size the shared issue queues (64 each in Table 1).
	IntIQ, FPIQ, LSIQ int
	// IntFU, FPFU, LSFU count the functional units (6 / 3 / 4 in Table 1).
	IntFU, FPFU, LSFU int

	// Execution latencies (cycles).
	IntMulLat, FPAluLat, FPMulLat, FPDivLat uint64

	// MispredictRedirect is the extra fetch-redirect cost after a resolved
	// branch misprediction, on top of waiting for resolution.
	MispredictRedirect uint64

	// BranchPredRows sizes the shared perceptron table.
	BranchPredRows int

	// Mem configures the memory hierarchy.
	Mem mem.Config

	// Runahead configures the RaT mechanism (zero value = disabled).
	Runahead runahead.Config

	// RunaheadCacheEntries sizes the optional runahead cache.
	RunaheadCacheEntries int
}

// DefaultConfig returns the Table 1 processor.
func DefaultConfig() Config {
	return Config{
		Width:                8,
		FetchThreads:         2,
		FrontEndDepth:        5,
		FetchQueue:           16,
		ROBSize:              512,
		IntRegs:              320,
		FPRegs:               320,
		IntIQ:                64,
		FPIQ:                 64,
		LSIQ:                 64,
		IntFU:                6,
		FPFU:                 3,
		LSFU:                 4,
		IntMulLat:            3,
		FPAluLat:             4,
		FPMulLat:             4,
		FPDivLat:             12,
		MispredictRedirect:   7,
		BranchPredRows:       4096,
		Mem:                  mem.DefaultConfig(),
		RunaheadCacheEntries: 512,
	}
}

// Caps on the knobs that size an allocation when a core is built. A
// scenario delta can set any of them, and one unbounded value (a 1 PiB
// L2, a ROB of 2^62 entries) would panic or exhaust the worker that
// builds the core, and with it the daemon. Each cap is far above Table 1
// and above anything FuzzRun draws.
const (
	// maxCacheLines bounds each cache at 2^22 lines: two uint64 words
	// of tag and LRU state a line, 64 MiB at the cap. Table 1's L2 has
	// 16 Ki lines; FuzzRun reaches 255 Ki (255 KB of 1-byte lines).
	maxCacheLines = 1 << 22
	// maxPredictorRows bounds the perceptron table at 2^20 rows of 32
	// bytes, 32 MiB at the cap. Table 1 has 4096 rows; FuzzRun draws an
	// int16.
	maxPredictorRows = 1 << 20
	// maxEntries bounds every other sized structure: the ROB, fetch
	// queue, issue queues, functional units, register files, MSHRs and
	// runahead cache, each at most a few MiB at 2^16 entries. Table 1's
	// largest is 512; FuzzRun draws an int16 at most.
	maxEntries = 1 << 16
	// maxDelay bounds the delays the core adds to the current cycle (the
	// front-end depth, the mispredict redirect and the runahead exit
	// penalty) at 2^16 cycles. An unbounded delay wraps the sum and
	// charges a few cycles instead: a wrong result with no warning. The
	// cap is 64 times the completion wheel, far above Table 1's 5, 7 and
	// 4 cycles, and FuzzRun draws a uint16.
	maxDelay = 1 << 16
)

// Validate rejects incoherent configurations, and configurations too
// large to build.
func (c Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("pipeline: width %d", c.Width)
	case c.FetchThreads <= 0:
		return fmt.Errorf("pipeline: fetch threads %d", c.FetchThreads)
	}
	for _, s := range []struct {
		name      string
		n, lo, hi int
	}{
		{"fetch queue entries", c.FetchQueue, 1, maxEntries}, {"ROB entries", c.ROBSize, 1, maxEntries},
		{"integer registers", c.IntRegs, 1, maxEntries}, {"FP registers", c.FPRegs, 1, maxEntries},
		{"integer issue queue entries", c.IntIQ, 1, maxEntries},
		{"FP issue queue entries", c.FPIQ, 1, maxEntries},
		{"load/store issue queue entries", c.LSIQ, 1, maxEntries},
		{"integer units", c.IntFU, 1, maxEntries}, {"FP units", c.FPFU, 1, maxEntries},
		{"load/store units", c.LSFU, 1, maxEntries},
		{"predictor rows", c.BranchPredRows, 1, maxPredictorRows},
		{"MSHRs", c.Mem.MSHRs, 1, maxEntries},
		{"runahead cache entries", c.RunaheadCacheEntries, 0, maxEntries},
	} {
		if s.n < s.lo || s.n > s.hi {
			return fmt.Errorf("pipeline: %d %s, want %d to %d", s.n, s.name, s.lo, s.hi)
		}
	}
	for _, d := range []struct {
		name string
		n    uint64
	}{
		{"front-end depth", c.FrontEndDepth}, {"mispredict redirect", c.MispredictRedirect},
		{"runahead exit penalty", c.Runahead.ExitPenalty},
	} {
		if d.n > maxDelay {
			return fmt.Errorf("pipeline: %s %d cycles, want 0 to %d", d.name, d.n, maxDelay)
		}
	}
	// Validate the memory hierarchy here too: scenario deltas can reshape
	// any cache, and mem's constructors panic on incoherent geometry, so
	// the error path must trigger first.
	for _, cc := range []mem.CacheConfig{c.Mem.IL1, c.Mem.DL1, c.Mem.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
		if lines := cc.SizeBytes / cc.LineBytes; lines > maxCacheLines {
			return fmt.Errorf("mem: %s: %d lines, want at most %d", cc.Name, lines, maxCacheLines)
		}
	}
	if c.Mem.MemLatency == 0 {
		return fmt.Errorf("mem: zero main-memory latency")
	}
	if lat := c.maxCompletionLatency(); lat >= wheelSize {
		return fmt.Errorf("pipeline: completion latency %d cycles does not fit the %d-cycle completion wheel", lat, wheelSize)
	}
	if c.Runahead.Enabled && c.Runahead.UseRunaheadCache && c.RunaheadCacheEntries <= 0 {
		return fmt.Errorf("pipeline: runahead cache enabled with %d entries", c.RunaheadCacheEntries)
	}
	return nil
}

// maxCompletionLatency is the longest delay execute can hand schedule:
// a functional-unit latency, or a load served by main memory, which
// mem.Hierarchy.Access completes after L1, L2 and memory latency. A load
// merging into an instruction-fetch miss inherits that miss's IL1
// latency, so the larger L1 latency counts. The sum saturates instead of
// wrapping.
func (c Config) maxCompletionLatency() uint64 {
	memory := max(c.Mem.IL1.Latency, c.Mem.DL1.Latency)
	for _, l := range []uint64{c.Mem.L2.Latency, c.Mem.MemLatency} {
		if memory += l; memory < l {
			memory = math.MaxUint64
			break
		}
	}
	return max(c.IntMulLat, c.FPAluLat, c.FPMulLat, c.FPDivLat, memory)
}

package pipeline

import (
	"math"
	"strings"
	"testing"
)

// TestValidateCompletionWheelBound: a latency execute can hand schedule
// must fit the completion wheel. Each pair of cases sits one cycle on
// either side of the bound (DL1 3 + L2 20 + memory, or one unit's
// latency), and an absurd latency is rejected rather than wrapped.
func TestValidateCompletionWheelBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"Table 1", func(*Config) {}, true},
		{"memLatency 1000 (1023 cycles)", func(c *Config) { c.Mem.MemLatency = 1000 }, true},
		{"memLatency 1001 (1024 cycles)", func(c *Config) { c.Mem.MemLatency = 1001 }, false},
		{"memLatency 1100", func(c *Config) { c.Mem.MemLatency = 1100 }, false},
		{"l2Lat 1000 (1023 cycles)", func(c *Config) { c.Mem.L2.Latency = 1000; c.Mem.MemLatency = 20 }, true},
		{"l2Lat 900", func(c *Config) { c.Mem.L2.Latency = 900 }, false},
		{"il1Lat past dl1Lat", func(c *Config) { c.Mem.MemLatency = 1000; c.Mem.IL1.Latency = 4 }, false},
		{"fpDivLat 1023", func(c *Config) { c.FPDivLat = 1023 }, true},
		{"fpDivLat 1024", func(c *Config) { c.FPDivLat = 1024 }, false},
		{"fpDivLat 5000", func(c *Config) { c.FPDivLat = 5000 }, false},
		{"intMulLat 1024", func(c *Config) { c.IntMulLat = 1024 }, false},
		{"memLatency wraps", func(c *Config) { c.Mem.MemLatency = math.MaxUint64 - 10 }, false},
	} {
		c := DefaultConfig()
		tc.set(&c)
		err := c.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "completion wheel")) {
			t.Errorf("%s: err = %v, want the completion-wheel bound", tc.name, err)
		}
	}
}

// TestValidateSizeBounds: every knob that sizes an allocation is bounded
// on both sides, so no configuration can ask the host for more memory
// than a worker holds, and every delay added to the cycle count is
// bounded, so none wraps the sum. Each cap is accepted, and one past it
// is rejected.
func TestValidateSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"L2 of 2^22 lines", func(c *Config) { c.Mem.L2.SizeBytes = maxCacheLines * 64 }, true},
		{"L2 of 2^23 lines", func(c *Config) { c.Mem.L2.SizeBytes = 2 * maxCacheLines * 64 }, false},
		{"1 PiB L2", func(c *Config) { c.Mem.L2.SizeBytes, c.Mem.L2.Ways = 1<<50, 2 }, false},
		{"DL1 of 1-byte lines", func(c *Config) { c.Mem.DL1.LineBytes = 1; c.Mem.DL1.SizeBytes = 2 * maxCacheLines }, false},
		{"predictor rows at cap", func(c *Config) { c.BranchPredRows = maxPredictorRows }, true},
		{"predictor rows past cap", func(c *Config) { c.BranchPredRows = maxPredictorRows + 1 }, false},
		{"ROB at cap", func(c *Config) { c.ROBSize = maxEntries }, true},
		{"ROB 0", func(c *Config) { c.ROBSize = 0 }, false},
		{"no runahead cache", func(c *Config) { c.RunaheadCacheEntries = 0 }, true},
		{"runahead cache -1", func(c *Config) { c.RunaheadCacheEntries = -1 }, false},
		{"ROB 2^62", func(c *Config) { c.ROBSize = 1 << 62 }, false},
		{"fetch queue", func(c *Config) { c.FetchQueue = maxEntries + 1 }, false},
		{"ROB", func(c *Config) { c.ROBSize = maxEntries + 1 }, false},
		{"int regs", func(c *Config) { c.IntRegs = maxEntries + 1 }, false},
		{"FP regs", func(c *Config) { c.FPRegs = maxEntries + 1 }, false},
		{"int IQ", func(c *Config) { c.IntIQ = maxEntries + 1 }, false},
		{"FP IQ", func(c *Config) { c.FPIQ = maxEntries + 1 }, false},
		{"LS IQ", func(c *Config) { c.LSIQ = maxEntries + 1 }, false},
		{"int FUs", func(c *Config) { c.IntFU = maxEntries + 1 }, false},
		{"FP FUs", func(c *Config) { c.FPFU = maxEntries + 1 }, false},
		{"LS FUs", func(c *Config) { c.LSFU = maxEntries + 1 }, false},
		{"MSHRs", func(c *Config) { c.Mem.MSHRs = maxEntries + 1 }, false},
		{"runahead cache", func(c *Config) { c.RunaheadCacheEntries = maxEntries + 1 }, false},
		{"front-end depth at cap", func(c *Config) { c.FrontEndDepth = maxDelay }, true},
		{"front-end depth past cap", func(c *Config) { c.FrontEndDepth = maxDelay + 1 }, false},
		{"front-end depth 2^64-1", func(c *Config) { c.FrontEndDepth = math.MaxUint64 }, false},
		{"mispredict redirect at cap", func(c *Config) { c.MispredictRedirect = maxDelay }, true},
		{"mispredict redirect 2^64-1", func(c *Config) { c.MispredictRedirect = math.MaxUint64 }, false},
		{"exit penalty at cap", func(c *Config) { c.Runahead.ExitPenalty = maxDelay }, true},
		{"exit penalty 2^64-1", func(c *Config) { c.Runahead.ExitPenalty = math.MaxUint64 }, false},
	} {
		c := DefaultConfig()
		tc.set(&c)
		err := c.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "want")) {
			t.Errorf("%s: err = %v, want a cap", tc.name, err)
		}
	}
}

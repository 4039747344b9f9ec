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

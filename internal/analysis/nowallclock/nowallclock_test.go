package nowallclock_test

import (
	"testing"

	"repro/internal/analysis/lintest"
	"repro/internal/analysis/nowallclock"
)

// TestSimulationPackage runs nowallclock over a package inside its
// target set: clock reads and global math/rand are flagged and duration
// arithmetic passes.
func TestSimulationPackage(t *testing.T) {
	lintest.Run(t, nowallclock.Analyzer, "testdata/sim", "repro/internal/core")
}

// TestServingPackageIsExempt type-checks the same clock reads under a
// serving-layer import path and expects silence.
func TestServingPackageIsExempt(t *testing.T) {
	lintest.Run(t, nowallclock.Analyzer, "testdata/serving", "repro/internal/simcache")
}

// Package sim exercises nowallclock inside its target set: the test
// harness type-checks it as repro/internal/core.
package sim

import (
	"math/rand"
	"time"
)

// stamp reads the wall clock: the canonical violation.
func stamp() int64 {
	t := time.Now() // want "time.Now in simulation package"
	return t.UnixNano()
}

// elapsed measures wall time, equally forbidden.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since in simulation package"
}

// ticker smuggles a clock in through a constructor.
func ticker() *time.Ticker {
	return time.NewTicker(time.Second) // want "time.NewTicker in simulation package"
}

// draw uses the global math/rand stream, which is unseeded and
// unreplayable.
func draw() int {
	return rand.Intn(6) // want "math/rand in simulation package"
}

// durations only touches time's types and constants, which carry no
// wall-clock state: allowed.
func durations() time.Duration {
	return 5 * time.Millisecond
}

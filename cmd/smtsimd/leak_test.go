package main

import (
	"os"
	"testing"

	"repro/internal/leakcheck"
)

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can observe the daemon's exit status and output.
const runMainEnv = "SMTSIMD_TEST_RUN_MAIN"

// TestMain gates the whole suite on goroutine hygiene: any goroutine
// this package's tests start and fail to reap turns a green run red.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(leakcheck.Main(m))
}

package blobstore_test

import (
	"os"
	"testing"

	"repro/internal/leakcheck"
)

// TestMain gates the whole suite on goroutine hygiene: any goroutine
// this package's tests start and fail to reap turns a green run red.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}

// Package analysis assembles the lint suite, which `go test
// ./internal/analysis/...` runs over the tree (TestLintClean). One
// analyzer is left, nowallclock, which keeps wall clocks and global
// math/rand out of the simulation packages. See README.md in this
// directory for why the others were replaced by tests.
package analysis

import (
	"repro/internal/analysis/lint"
	"repro/internal/analysis/nowallclock"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{nowallclock.Analyzer}
}

// Package analysis assembles the smtlint suite: the custom analyzers
// that hold this repo's determinism, cancellation and panic-freedom
// contracts at the line that breaks them. See README.md in this directory for the invariant
// each analyzer guards, the packages it applies to, and how to suppress
// a finding with justification.
package analysis

import (
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detrange"
	"repro/internal/analysis/lint"
	"repro/internal/analysis/nowallclock"
	"repro/internal/analysis/panicfree"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		ctxflow.Analyzer,
		detrange.Analyzer,
		nowallclock.Analyzer,
		panicfree.Analyzer,
	}
}

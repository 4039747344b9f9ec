// Package analysis assembles the smtlint suite: the custom analyzers
// that mechanically enforce this repo's determinism, cancellation and
// output-stability contracts. See README.md in this directory for the
// invariant each analyzer guards, the packages it applies to, and how
// to suppress a finding with justification.
package analysis

import (
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detrange"
	"repro/internal/analysis/floatfmt"
	"repro/internal/analysis/lint"
	"repro/internal/analysis/nowallclock"
	"repro/internal/analysis/panicfree"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*lint.Analyzer {
	return []*lint.Analyzer{
		ctxflow.Analyzer,
		detrange.Analyzer,
		floatfmt.Analyzer,
		nowallclock.Analyzer,
		panicfree.Analyzer,
	}
}

package main

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/lint"
)

// TestLintClean holds the benchmark module to the repository's smtlint
// suite, which the root module's own TestLintClean cannot see: bench is a
// module of its own.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the bench module")
	}
	pkgs, err := lint.Load("..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
}

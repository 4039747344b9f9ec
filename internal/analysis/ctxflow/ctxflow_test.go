package ctxflow_test

import (
	"testing"

	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/lintest"
)

// TestLibraryPackage runs ctxflow over a module-internal package:
// orphan Background() and TODO() are flagged; a threaded context and a
// justified directive pass.
func TestLibraryPackage(t *testing.T) {
	lintest.Run(t, ctxflow.Analyzer, "testdata/pkg", "repro/internal/ctxtest")
}

// TestMainPackageMayUseBackground checks the package-main exemption
// for the root context.
func TestMainPackageMayUseBackground(t *testing.T) {
	lintest.Run(t, ctxflow.Analyzer, "testdata/mainpkg", "repro/cmd/ctxtool")
}

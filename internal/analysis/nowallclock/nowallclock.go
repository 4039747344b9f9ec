// Package nowallclock forbids wall-clock reads and global math/rand use
// in the simulation packages, where internal/rng and the simulated cycle
// counter are the only sanctioned sources of nondeterminism. Every
// result must be a pure function of (workload, canonical config): one
// time.Now or rand.Intn in a simulation path silently breaks replay,
// fingerprint-addressed caching, and cross-machine determinism.
//
// The serving and storage layers (simcache, blobstore, resultstore,
// tracestore, sched, the daemons) legitimately read clocks — LRU
// recency, latency measurement — and are simply not in the target set.
package nowallclock

import (
	"go/ast"
	"go/types"
	"slices"

	"repro/internal/analysis/lint"
)

// TargetPackages are the simulation packages, where results must be
// pure functions of their inputs.
var TargetPackages = []string{
	"repro/internal/core",
	"repro/internal/pipeline",
	"repro/internal/mem",
	"repro/internal/trace",
	"repro/internal/isa",
	"repro/internal/policy",
	"repro/internal/regfile",
	"repro/internal/runahead",
	"repro/internal/rescontrol",
	"repro/internal/rng",
	"repro/internal/metrics",
	"repro/internal/workload",
	"repro/internal/scenario",
	"repro/internal/experiments",
	"repro/internal/report",
}

// clockFuncs are the forbidden package-time functions: wall-clock reads
// plus the timer constructors that smuggle one in.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the nowallclock check.
var Analyzer = &lint.Analyzer{
	Name: "nowallclock",
	Doc: "forbid time.Now/Since/timers and global math/rand in simulation packages " +
		"(internal/rng and the cycle counter are the only sanctioned nondeterminism sources)",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !slices.Contains(TargetPackages, pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[identOf(sel.X)].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if clockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"time.%s in simulation package %s: results must be pure functions of (workload, config); derive timing from the cycle counter",
						sel.Sel.Name, pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"math/rand in simulation package %s: use internal/rng so every stream is seeded and replayable",
					pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}

// identOf unwraps a selector receiver to its identifier, if any.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

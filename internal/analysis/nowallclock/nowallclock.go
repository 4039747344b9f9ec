// Package nowallclock forbids wall-clock reads and global math/rand use
// in the simulation packages, where internal/rng and the simulated cycle
// counter are the only sanctioned sources of nondeterminism. Every
// result must be a pure function of (workload, canonical config): one
// time.Now or rand.Intn in a simulation path silently breaks replay,
// fingerprint-addressed caching, and cross-machine determinism.
//
// The serving and storage layers (simcache, resultstore, tracestore,
// sched, the daemons) legitimately read clocks — LRU recency, latency
// measurement — and are simply not in the target set.
//
// The check works on syntax alone. A selector X.Sel is resolved through
// the file's import table: X is the alias of an import, or the default
// name of a watched import path (time, math/rand, math/rand/v2). A dot
// import of a watched path is reported, since its functions would be
// called unqualified. Scopes are not resolved, which errs in the strict
// direction: a local identifier that shadows a watched import's name (a
// parameter called time whose type has a Now method, say) is reported
// as if it were the package. No such shadowing exists in the tree.
package nowallclock

import (
	"go/ast"
	"slices"
	"strconv"

	"repro/internal/analysis/lint"
)

// TargetPackages are the simulation packages, where results must be
// pure functions of their inputs.
var TargetPackages = []string{
	"repro/internal/core",
	"repro/internal/pipeline",
	"repro/internal/mem",
	"repro/internal/bpred",
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

// defaultNames maps each watched import path to the name a file refers
// to it by when the import has no alias.
var defaultNames = map[string]string{
	"time":         "time",
	"math/rand":    "rand",
	"math/rand/v2": "rand",
}

// clockFuncs are the forbidden package-time functions: wall-clock reads
// plus the timer constructors that smuggle one in.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Analyzer is the nowallclock check.
var Analyzer = &lint.Analyzer{Name: "nowallclock", Run: run}

func run(pass *lint.Pass) error {
	if !slices.Contains(TargetPackages, pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		// imported maps each name the file uses for a watched package to
		// that package's path.
		imported := map[string]string{}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			name, ok := defaultNames[path]
			if !ok {
				continue
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if name == "." {
				pass.Reportf(spec.Pos(),
					"dot import of %s in simulation package %s: import it by name so its clock and random functions stay visible",
					path, pass.Path)
			}
			imported[name] = path
		}
		if len(imported) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch imported[id.Name] {
			case "time":
				if clockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"time.%s in simulation package %s: results must be pure functions of (workload, config); derive timing from the cycle counter",
						sel.Sel.Name, pass.Path)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"math/rand in simulation package %s: use internal/rng so every stream is seeded and replayable",
					pass.Path)
			}
			return true
		})
	}
	return nil
}

// Package detrange flags `range` statements over maps in the packages
// whose outputs must be byte-identical across runs, worker counts and
// schedulers. Go randomizes map iteration order on purpose, so a map
// range anywhere between a simulation result and serialized bytes is
// exactly the kind of silent nondeterminism the golden, Workers=1 vs
// GOMAXPROCS, and restart-replay tests exist to catch after the fact —
// this analyzer catches it at lint time instead.
//
// Two shapes are exempt because they are order-insensitive by
// construction:
//
//   - the collect-keys idiom, `for k := range m { keys = append(keys, k) }`,
//     whose single statement appends only the key (the caller sorts);
//   - the clear idiom, `for k := range m { delete(m, k) }`.
//
// Every other map range in a target package needs either sorted-key
// iteration or a justified //lint:detrange directive explaining why iteration order cannot reach any output.
package detrange

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lint"
)

// TargetPackages are the result-producing and serializing packages the
// determinism contract covers.
var TargetPackages = []string{
	"repro/internal/core",
	"repro/internal/pipeline",
	"repro/internal/scenario",
	"repro/internal/report",
	"repro/internal/sched",
	"repro/internal/metrics",
	"repro/internal/experiments",
	"repro/internal/workload",
	"repro/internal/simcache",
	"repro/internal/blobstore",
	"repro/internal/resultstore",
	"repro/internal/tracestore",
	"repro/cmd/smtsimd",
}

// Analyzer is the detrange check.
var Analyzer = &lint.Analyzer{
	Name: "detrange",
	Doc: "flag range-over-map in result-producing/serializing packages " +
		"(map iteration order is randomized; sort keys first or justify with //lint:detrange)",
	Run: run,
}

func run(pass *lint.Pass) error {
	if !lint.PathIn(pass.Pkg.Path(), TargetPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitive(rs) {
				return true
			}
			pass.Reportf(rs.For,
				"range over map %s iterates in randomized order; collect and sort the keys first, or justify with //lint:detrange",
				pass.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// orderInsensitive recognizes the two exempt single-statement bodies:
// appending the range key to a slice, and deleting the range key from
// the ranged map.
func orderInsensitive(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	// The value must be unused: a body consuming values is
	// order-sensitive work, not key collection.
	if rs.Value != nil {
		if v, ok := rs.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	switch stmt := rs.Body.List[0].(type) {
	case *ast.AssignStmt:
		// keys = append(keys, k)
		if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
			return false
		}
		call, ok := stmt.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		return ok && arg.Name == key.Name
	case *ast.ExprStmt:
		// delete(m, k)
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fn.Name != "delete" {
			return false
		}
		arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		return ok && arg.Name == key.Name
	}
	return false
}

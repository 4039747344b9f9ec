// Package ctxflow enforces the cancellation contract: context must
// thread through every execution layer. context.Background() and
// context.TODO() manufacture a context nobody can cancel, so outside
// package main (where the root context is born from signals) a function
// wanting a context must accept one from its caller.
//
// The rule earns its place because a dropped context often changes
// nothing a test can see: a wait that ignores cancellation still returns
// the right result, only later. Test files are never loaded by the lint
// driver, so tests keep their Background contexts. Sites where dropping
// the context is the designed behavior (in-flight work that must
// complete into a shared cache regardless of requester death) carry a
// justified //lint:ctxflow directive.
package ctxflow

import (
	"go/ast"

	"repro/internal/analysis/lint"
)

// Analyzer is the ctxflow check.
var Analyzer = &lint.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background()/TODO() outside package main",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lint.FuncObj(pass.TypesInfo, call)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
				(fn.Name() == "Background" || fn.Name() == "TODO") {
				pass.Reportf(call.Pos(),
					"context.%s() outside main: accept a ctx from the caller so cancellation threads through (or justify with //lint:ctxflow)",
					fn.Name())
			}
			return true
		})
	}
	return nil
}

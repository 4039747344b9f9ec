// Package ctxflow enforces the cancellation contract PR 4 established:
// context must thread through every execution layer. Two rules:
//
//  1. Calling a function or method F when a sibling F+"Ctx" exists in
//     this module drops the caller's context on the floor — the exact
//     bug class that used to leak goroutines and simulate abandoned
//     cells. The one sanctioned caller is a convenience wrapper that
//     itself has a Ctx sibling (a Step delegating to StepCtx may call
//     other non-Ctx variants: its own Ctx twin is the real API). The
//     module's dispatch layers keep only their Ctx forms, so the rule
//     guards against a context-free twin coming back.
//
//  2. context.Background() / context.TODO() manufacture a context
//     nobody can cancel. Outside package main (where the root context
//     is born from signals) and outside the sanctioned non-Ctx
//     convenience wrappers, a function wanting a context must accept
//     one from its caller.
//
// Test files are never loaded by the lint driver, so tests keep their
// Background contexts. Sites where dropping the context is the designed
// behavior (in-flight work that must complete into a shared cache
// regardless of requester death) carry a justified //lint:ctxflow
// directive.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/lint"
)

// ModulePrefix scopes sibling lookup to this module's own API.
const ModulePrefix = "repro"

// Analyzer is the ctxflow check.
var Analyzer = &lint.Analyzer{
	Name: "ctxflow",
	Doc: "flag calls to a non-Ctx variant when a ...Ctx sibling exists, and " +
		"context.Background()/TODO() outside main and the non-Ctx convenience wrappers",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			var exempt bool
			if fd != nil {
				// A function that has its own Ctx sibling IS the non-Ctx
				// convenience surface: everything inside it (closures
				// included) is the sanctioned ctx-free bridge.
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					exempt = hasCtxSibling(obj)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				check(pass, call, exempt)
				return true
			})
		}
	}
	return nil
}

// check applies both rules to one call expression.
func check(pass *lint.Pass, call *ast.CallExpr, inWrapper bool) {
	fn := lint.FuncObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "context" && fn.Type().(*types.Signature).Recv() == nil &&
		(fn.Name() == "Background" || fn.Name() == "TODO") {
		if pass.Pkg.Name() == "main" || inWrapper {
			return
		}
		pass.Reportf(call.Pos(),
			"context.%s() outside main: accept a ctx from the caller so cancellation threads through (or justify with //lint:ctxflow)",
			fn.Name())
		return
	}
	if inWrapper {
		return
	}
	path := fn.Pkg().Path()
	if path != ModulePrefix && !strings.HasPrefix(path, ModulePrefix+"/") {
		return
	}
	if strings.HasSuffix(fn.Name(), "Ctx") {
		return
	}
	if !hasCtxSibling(fn) {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s where %sCtx exists: thread the caller's context (or justify with //lint:ctxflow)",
		fn.Name(), fn.Name())
}

// hasCtxSibling reports whether fn's package (or receiver type) also
// declares fn's name + "Ctx".
func hasCtxSibling(fn *types.Func) bool {
	name := fn.Name() + "Ctx"
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		obj := fn.Pkg().Scope().Lookup(name)
		sibling, ok := obj.(*types.Func)
		return ok && sibling.Type().(*types.Signature).Recv() == nil
	}
	t := recv.Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	named = named.Origin()
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

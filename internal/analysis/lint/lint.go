// Package lint is the repository's in-tree static-analysis framework: a
// small, dependency-free mirror of the shape of
// golang.org/x/tools/go/analysis built on the standard library's go/ast
// and go/parser alone.
//
// An Analyzer is a named check with a Run function over a Pass (one
// package's parsed files and its import path), and diagnostics carry
// positions. Nothing is type-checked: the one analyzer left,
// nowallclock, resolves package names through each file's import table,
// which is all it needs. Run it with
//
//	go test ./internal/analysis/...
//
// There is no suppression directive: a finding is fixed, or the analyzer
// is wrong.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Run reports the analyzer's findings for one package via
	// pass.Reportf. Returning an error aborts the whole lint run: it
	// means the analyzer itself failed, not that the code is in
	// violation.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one parsed package.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions for every file of the load.
	Fset *token.FileSet
	// Files are the package's parsed non-test Go files.
	Files []*ast.File
	// Path is the package's import path, which the invariant package
	// lists key off.
	Path string

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Result is the outcome of running a suite over loaded packages.
type Result struct {
	// Diagnostics are the findings, sorted by position.
	Diagnostics []Diagnostic
}

// Run applies every analyzer to every package.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	res := &Result{}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Files: pkg.Files, Path: pkg.ImportPath}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			res.Diagnostics = append(res.Diagnostics, pass.diags...)
		}
	}
	slices.SortFunc(res.Diagnostics, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer))
	})
	return res, nil
}

// Package lint is the repo's in-tree static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API built
// entirely on the standard library's go/ast and go/types.
//
// The container this reproduction builds in has no module proxy, so the
// x/tools analysis machinery — the idiomatic substrate for this kind of
// invariant checking — is out of reach. The shape of its API is not: an
// Analyzer is a named check with a Run function over a type-checked
// Pass, diagnostics carry positions, and a runner (cmd/smtlint, or the
// lintest harness) applies analyzers to loaded packages. Keeping the
// same shape means the suite ports to a stock multichecker mechanically
// the day golang.org/x/tools becomes available.
//
// There is no suppression directive: a finding is fixed, or the analyzer
// is wrong.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description cmd/smtlint -list prints.
	Doc string
	// Run reports the analyzer's findings for one package via
	// pass.Reportf. Returning an error aborts the whole lint run: it
	// means the analyzer itself failed, not that the code is in
	// violation.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token positions for every file of the load.
	Fset *token.FileSet
	// Files are the package's parsed non-test Go files.
	Files []*ast.File
	// Pkg is the type-checked package (Path is the import path the
	// invariant package lists key off).
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

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
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			res.Diagnostics = append(res.Diagnostics, pass.diags...)
		}
	}
	ds := res.Diagnostics
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

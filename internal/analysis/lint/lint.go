// Package lint is the repo's in-tree static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API built
// entirely on the standard library's go/ast and go/types.
//
// The container this reproduction builds in has no module proxy, so the
// x/tools analysis machinery — the idiomatic substrate for this kind of
// invariant checking — is out of reach. The shape of its API is not: an
// Analyzer is a named check with a Run function over a type-checked
// Pass, diagnostics carry positions, and a driver (cmd/smtlint, or the
// lintest harness) applies analyzers to loaded packages. Keeping the
// same shape means the suite ports to a stock multichecker mechanically
// the day golang.org/x/tools becomes available.
//
// # Suppressions
//
// A diagnostic is suppressed by a justified directive comment on the
// flagged line or the line directly above it:
//
//	//lint:<name> <justification>
//
// where <name> is the analyzer's name. The justification is mandatory: a
// bare directive suppresses nothing, so every silenced finding records
// *why* the invariant holds at that site. Suppressed diagnostics are still
// collected (Result.Suppressed) so tests can assert a directive really
// engaged rather than the analyzer having missed the site.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and is its suppression
	// directive.
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

// ExprString renders an expression's source text for diagnostics.
func (p *Pass) ExprString(e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, p.Fset, e); err != nil {
		return "<expr>"
	}
	return b.String()
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
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed are findings silenced by a justified //lint: directive,
	// kept so tests can assert a directive engaged.
	Suppressed []Diagnostic
}

// directiveRe matches a //lint:<name> <justification> comment. The
// directive must open the comment (matching the //go: convention of no
// space after the slashes).
var directiveRe = regexp.MustCompile(`^//lint:([a-zA-Z0-9_-]+)(.*)$`)

// suppressions indexes justified directives by file and line: an entry
// at (file, L) silences matching diagnostics reported on L or L+1.
type suppressions map[string]map[int][]string

// suppressionsOf scans a package's comments for justified directives.
// Bare directives (no justification text) are ignored — and therefore
// suppress nothing — by design.
func suppressionsOf(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					continue
				}
				pos := fset.Position(c.Slash)
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					sup[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], m[1])
			}
		}
	}
	return sup
}

// matches reports whether a justified directive named name exists on the
// diagnostic's line or the line above.
func (s suppressions) matches(d Diagnostic, name string) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, have := range byLine[line] {
			if have == name {
				return true
			}
		}
	}
	return false
}

// Run applies every analyzer to every package, splitting findings into
// surviving and suppressed sets.
func Run(pkgs []*Package, analyzers []*Analyzer) (*Result, error) {
	res := &Result{}
	for _, pkg := range pkgs {
		sup := suppressionsOf(pkg.Fset, pkg.Files)
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
			for _, d := range pass.diags {
				if sup.matches(d, a.Name) {
					res.Suppressed = append(res.Suppressed, d)
				} else {
					res.Diagnostics = append(res.Diagnostics, d)
				}
			}
		}
	}
	for _, ds := range [][]Diagnostic{res.Diagnostics, res.Suppressed} {
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
	}
	return res, nil
}

// PathIn reports whether pkgPath is one of paths — the helper invariant
// package lists use to scope themselves.
func PathIn(pkgPath string, paths []string) bool {
	for _, p := range paths {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// FuncObj resolves the called function or method object of a call
// expression, or nil when the callee is not a declared func (builtin,
// conversion, func-typed variable).
func FuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

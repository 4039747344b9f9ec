// Package lintest is the analysistest-style harness for the lint suite:
// it loads one testdata package, runs one analyzer over it, and checks
// the produced diagnostics against expectation comments in the source.
//
// Expectations ride the flagged line as comments:
//
//	for k := range m { // want "range over map"
//	//lint:detrange builds a map
//	for k := range m { // want-suppressed "range over map"
//
// `// want "re"` demands an unsuppressed diagnostic on that line whose
// message matches the regexp; `// want-suppressed "re"` demands the
// diagnostic was produced AND silenced by a justified //lint: directive
// — which is how suppression handling itself stays regression-locked:
// an annotated site must keep passing precisely because its directive
// engaged, not because the analyzer went blind.
//
// Testdata packages live under testdata/<case>/ (ignored by the go
// tool) and are type-checked under a caller-chosen import path, so an
// analyzer scoped to, say, repro/internal/report can be exercised both
// inside and outside its target set.
package lintest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/analysis/lint"
)

// TB is the subset of testing.TB the harness needs. Taking the
// interface instead of *testing.T lets the harness itself be tested:
// the meta-test hands Run a recording fake and asserts that stale
// expectations and surprise diagnostics actually fail. Fatal callers
// must be able to return normally (a fake records instead of aborting),
// so Run guards every Fatal with an explicit return.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatal(args ...any)
}

// wantRe matches one quoted regexp in a want comment's payload.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one expected diagnostic: a regexp at a line, either
// surviving or suppressed.
type expectation struct {
	file       string
	line       int
	re         *regexp.Regexp
	suppressed bool
	matched    bool
}

// Run loads dir as a package named pkgPath, applies a, and compares
// diagnostics against the // want and // want-suppressed comments.
func Run(t TB, a *lint.Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg, err := loadDir(dir, pkgPath)
	if err != nil {
		t.Fatal(err)
		return
	}
	res, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
		return
	}
	wants, err := expectations(pkg.Fset, pkg.Files)
	if err != nil {
		t.Fatal(err)
		return
	}
	match := func(d lint.Diagnostic, suppressed bool) bool {
		for _, w := range wants {
			if !w.matched && w.suppressed == suppressed && w.file == d.Pos.Filename &&
				w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				return true
			}
		}
		return false
	}
	for _, d := range res.Diagnostics {
		if !match(d, false) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, d := range res.Suppressed {
		if !match(d, true) {
			t.Errorf("unexpected suppressed diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			kind := "diagnostic"
			if w.suppressed {
				kind = "suppressed diagnostic"
			}
			t.Errorf("%s:%d: expected %s matching %q, got none", w.file, w.line, kind, w.re)
		}
	}
}

// loadDir parses and type-checks every .go file in dir as pkgPath,
// resolving its (standard library) imports from compiled export data.
func loadDir(dir, pkgPath string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("lintest: no .go files in %s", dir)
	}
	// Two passes: a throwaway parse discovers the imports, go list
	// resolves their export data, then CheckFiles does the real load.
	imports, err := importsOf(dir, goFiles)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		exports, err = lint.ListExports(".", imports...)
		if err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	return lint.CheckFiles(fset, dir, goFiles, pkgPath, lint.Importer(fset, exports))
}

// importsOf collects the distinct import paths of the given files.
func importsOf(dir string, goFiles []string) ([]string, error) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var out []string
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			if !seen[imp] {
				seen[imp] = true
				out = append(out, imp)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// expectations scans the files' comments for want / want-suppressed
// markers.
func expectations(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	re := regexp.MustCompile(`^//\s*(want|want-suppressed)\s+(.*)$`)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := re.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				quoted := wantRe.FindAllStringSubmatch(m[2], -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s:%d: %s comment without a quoted regexp", pos.Filename, pos.Line, m[1])
				}
				for _, q := range quoted {
					r, err := regexp.Compile(q[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %w", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{
						file:       pos.Filename,
						line:       pos.Line,
						re:         r,
						suppressed: m[1] == "want-suppressed",
					})
				}
			}
		}
	}
	return out, nil
}

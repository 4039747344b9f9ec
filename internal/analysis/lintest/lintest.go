// Package lintest is the analysistest-style harness for the lint suite:
// it loads one testdata package, runs one analyzer over it, and checks
// the produced diagnostics against expectation comments in the source.
//
// Expectations ride the flagged line as comments:
//
//	t := time.Now() // want "time.Now in simulation package"
//
// `// want "re"` demands a diagnostic on that line whose message matches
// the regexp, and every diagnostic must match one. An expectation nothing
// fires means the analyzer went blind; a diagnostic nothing expects is a
// false positive. Both fail the run.
//
// Testdata packages live under testdata/<case>/ (ignored by the go
// tool) and are type-checked under a caller-chosen import path, so an
// analyzer scoped to, say, repro/internal/core can be exercised both
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

// expectation is one expected diagnostic: a regexp at a line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads dir as a package named pkgPath, applies a, and compares
// diagnostics against the // want comments.
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
	match := func(d lint.Diagnostic) bool {
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				return true
			}
		}
		return false
	}
	for _, d := range res.Diagnostics {
		if !match(d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
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

// expectations scans the files' comments for want markers.
func expectations(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var out []*expectation
	re := regexp.MustCompile(`^//\s*want\s+(.*)$`)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := re.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				quoted := wantRe.FindAllStringSubmatch(m[1], -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s:%d: want comment without a quoted regexp", pos.Filename, pos.Line)
				}
				for _, q := range quoted {
					r, err := regexp.Compile(q[1])
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %w", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: r})
				}
			}
		}
	}
	return out, nil
}

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded target package: its import path and its parsed
// non-test Go files.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
}

// Load lists patterns module-aware from dir with `go list` and parses
// every matched package's non-test Go files (cgo files included).
// Nothing is compiled or type-checked, so a load costs one `go list`
// plus one parse of the targets. Test files are not loaded: the
// invariants the suite guards are production-code contracts, and tests
// legitimately use wall clocks.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles,CgoFiles"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath, Dir   string
			GoFiles, CgoFiles []string
		}
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkg := &Package{ImportPath: p.ImportPath, Fset: fset}
		for _, name := range append(p.GoFiles, p.CgoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		pkgs = append(pkgs, pkg)
	}
}

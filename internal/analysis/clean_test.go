package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/lint"
)

// moduleRoot locates the repository root from the test's working
// directory via the go tool.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// TestLintClean is the repo-wide gate: the whole tree must produce
// zero unsuppressed diagnostics from the full analyzer suite. Every
// in-tree finding is either fixed or carries a justified //lint:
// directive, and this test keeps it that way.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole tree")
	}
	pkgs, err := lint.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if t.Failed() {
		t.Log("fix the findings above or add a justified //lint:<analyzer> directive (see internal/analysis/README.md)")
	}
}

// TestSeededViolationsAreCaught builds a throwaway module that commits
// one headline sin per analyzer — a raw map range in a serializing
// package, a wall-clock read in a simulation package, an uncancellable
// context in a library package and a panic in a library package — and
// checks each analyzer fires. TestLintClean alone would also pass if the
// analyzers went blind; this test pins their teeth.
func TestSeededViolationsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module")
	}
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro\n\ngo 1.24\n")
	write("internal/report/bad.go", `package report

import "fmt"

// Emit leaks map iteration order straight into serialized output.
func Emit(rows map[string]float64) string {
	var out string
	for name, v := range rows {
		out += fmt.Sprintf("%s=%f\n", name, v)
	}
	return out
}
`)
	write("internal/core/clock.go", `package core

import "time"

// Stamp reads the wall clock inside the simulator.
func Stamp() int64 {
	return time.Now().UnixNano()
}
`)
	write("internal/simcache/ctx.go", `package simcache

import "context"

// Detached manufactures a context no caller can cancel.
func Detached() context.Context {
	return context.Background()
}
`)
	write("internal/simcache/panic.go", `package simcache

// Check takes the process down instead of returning an error.
func Check(ok bool) {
	if !ok {
		panic("simcache: invariant")
	}
}
`)
	pkgs, err := lint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range res.Diagnostics {
		found[d.Analyzer] = true
	}
	for _, want := range []string{"ctxflow", "detrange", "nowallclock", "panicfree"} {
		if !found[want] {
			t.Errorf("seeded violation for %s not reported; diagnostics: %v", want, res.Diagnostics)
		}
	}
}

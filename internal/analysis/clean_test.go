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
// zero diagnostics from the full analyzer suite.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lists and parses the whole tree")
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
}

// TestSeededViolationsAreCaught builds a throwaway module that reads
// the wall clock in a simulation package and checks the suite fires.
// TestLintClean alone would also pass if the analyzer went blind; this
// test pins its teeth.
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
	write("internal/core/clock.go", `package core

import "time"

// Stamp reads the wall clock inside the simulator.
func Stamp() int64 {
	return time.Now().UnixNano()
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
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Analyzer != "nowallclock" {
		t.Errorf("want the seeded wall-clock read reported by nowallclock, got %v", res.Diagnostics)
	}
}

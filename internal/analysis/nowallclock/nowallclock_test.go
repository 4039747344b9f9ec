package nowallclock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis/lint"
	"repro/internal/analysis/nowallclock"
)

// finding is one expected diagnostic: its line and the start of its
// message, up to the package path.
type finding struct {
	line int
	msg  string
}

// check parses src as the one file of the package path, runs the
// analyzer over it and compares the findings with want, in order.
func check(t *testing.T, path, src string, want []finding) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{ImportPath: path, Fset: fset, Files: []*ast.File{f}}
	res, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{nowallclock.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Diagnostics
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(want):
			t.Errorf("unexpected finding %s", got[i])
		case i >= len(got):
			t.Errorf("missing finding on line %d: %s", want[i].line, want[i].msg)
		case got[i].Pos.Line != want[i].line || !strings.HasPrefix(got[i].Message, want[i].msg):
			t.Errorf("finding %s, want line %d: %s", got[i], want[i].line, want[i].msg)
		}
	}
}

// clockReads reads the wall clock and the global math/rand stream, and
// does duration arithmetic, which carries no wall-clock state.
const clockReads = `package sim

import (
	"math/rand"
	"time"
)

func stamp() int64 { return time.Now().UnixNano() }

func elapsed(start time.Time) time.Duration { return time.Since(start) }

func ticker() *time.Ticker { return time.NewTicker(time.Second) }

func draw() int { return rand.Intn(6) }

func durations() time.Duration { return 5 * time.Millisecond }
`

// TestSimulationPackage runs nowallclock over packages inside its
// target set: clock reads and global math/rand are flagged however the
// package is imported, and duration arithmetic and look-alike packages
// pass.
func TestSimulationPackage(t *testing.T) {
	const core = " in simulation package repro/internal/core"
	for _, tc := range []struct {
		name, src string
		want      []finding
	}{
		{"clock reads", clockReads, []finding{
			{8, "time.Now" + core}, {10, "time.Since" + core},
			{12, "time.NewTicker" + core}, {14, "math/rand" + core},
		}},
		{"every clock function", `package sim

import "time"

func all(d time.Duration) {
	_ = time.Now()
	_ = time.Since(time.Time{})
	_ = time.Until(time.Time{})
	time.Sleep(d)
	_ = time.After(d)
	_ = time.AfterFunc(d, nil)
	_ = time.Tick(d)
	_ = time.NewTimer(d)
	_ = time.NewTicker(d)
}
`, []finding{
			{6, "time.Now" + core}, {7, "time.Since" + core}, {8, "time.Until" + core},
			{9, "time.Sleep" + core}, {10, "time.After" + core}, {11, "time.AfterFunc" + core},
			{12, "time.Tick" + core}, {13, "time.NewTimer" + core}, {14, "time.NewTicker" + core},
		}},
		{"aliased time", `package sim

import clock "time"

func stamp() clock.Time { return clock.Now() }
`, []finding{{5, "time.Now" + core}}},
		{"aliased math/rand", `package sim

import mrand "math/rand"

func draw() int { return mrand.Intn(6) }
`, []finding{{5, "math/rand" + core}}},
		{"math/rand/v2", `package sim

import "math/rand/v2"

func draw() int { return rand.IntN(6) }
`, []finding{{5, "math/rand" + core}}},
		{"dot import of time", `package sim

import . "time"

func stamp() Time { return Now() }
`, []finding{{3, "dot import of time" + core}}},
		{"function value", `package sim

import "time"

var now = time.Now
`, []finding{{5, "time.Now" + core}}},
		{"package whose last element is time", `package sim

import "example.com/time"

func stamp() int64 { return time.Now() }
`, nil},
		{"blank import", `package sim

import _ "time"
`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) { check(t, "repro/internal/core", tc.src, tc.want) })
	}
}

// TestServingPackageIsExempt runs the same clock reads under a
// serving-layer import path and expects silence.
func TestServingPackageIsExempt(t *testing.T) {
	check(t, "repro/internal/simcache", clockReads, nil)
	check(t, "repro/internal/simcache", "package serving\n\nimport . \"time\"\n", nil)
}

// exempt lists the internal packages outside TargetPackages, each with
// the reason it may read clocks or is no simulation code.
var exempt = map[string]string{
	"repro/internal/analysis":             "the lint suite: tooling, not on any simulation path",
	"repro/internal/analysis/lint":        "the lint framework: tooling, not on any simulation path",
	"repro/internal/analysis/nowallclock": "this analyzer: tooling, not on any simulation path",
	"repro/internal/blobstore":            "tests of resultstore's on-disk contract from outside the package; no non-test code",
	"repro/internal/resultstore":          "disk result tier: stores results it does not compute, and orders restart adoption by file mtime",
	"repro/internal/simcache":             "in-memory result cache: LRU recency and waits, never a simulated number",
	"repro/internal/tracestore":           "trace tier: keeps generated traces, which are pure functions of their key",
	"repro/internal/sched":                "fair work queue: decides the order cells run in, not what they compute",
	"repro/internal/leakcheck":            "test helper: polls goroutine stacks with a wall-clock timeout",
}

// TestEveryInternalPackageIsClassified fails when an internal package is
// neither a nowallclock target nor exempt, so a new simulation package
// cannot fall outside the check unnoticed, and when either list names a
// package that does not exist.
func TestEveryInternalPackageIsClassified(t *testing.T) {
	out, err := exec.Command("go", "list", "repro/internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := strings.Fields(string(out))
	for _, p := range pkgs {
		_, isExempt := exempt[p]
		isTarget := slices.Contains(nowallclock.TargetPackages, p)
		switch {
		case isTarget && isExempt:
			t.Errorf("%s is both a target and exempt", p)
		case !isTarget && !isExempt:
			t.Errorf("%s is neither in nowallclock.TargetPackages nor exempt; add it to one, with a reason if exempt", p)
		}
	}
	for p := range exempt {
		if !slices.Contains(pkgs, p) {
			t.Errorf("exempt package %s does not exist", p)
		}
	}
	for _, p := range nowallclock.TargetPackages {
		if !slices.Contains(pkgs, p) {
			t.Errorf("target package %s does not exist", p)
		}
	}
}

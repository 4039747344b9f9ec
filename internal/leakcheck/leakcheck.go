// Package leakcheck fails a test when goroutines the test started are
// still alive at its end: a fire-and-forget goroutine, a worker that
// never exits its loop, or one parked on a channel or context nobody
// will ever signal.
//
// Usage, at the top of any test that exercises concurrent machinery:
//
//	defer leakcheck.Check(t)
//
// and, per package, a baseline gate over the whole suite:
//
//	func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
//
// Check snapshots the goroutine stacks (runtime.Stack, the same dump a
// crash prints), filters the runtime's and the testing framework's own
// goroutines, and retries with backoff before declaring a leak, since
// a goroutine legitimately reaped by a just-signaled WaitGroup may
// need a scheduler beat to unwind. Main diffs against the count
// captured before any test ran, so cross-test accumulation — each test
// leaking one goroutine into package scope — is caught even where
// individual tests forgot their Check.
//
// The implementation is a dependency-free reduction of the approach in
// go.uber.org/goleak, which the container cannot fetch.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB Check needs; taking the interface
// keeps this package importable outside _test files and lets the
// package's own tests assert on a recording fake.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// Runner is the subset of *testing.M Main needs.
type Runner interface {
	Run() int
}

// maxRetry bounds how long Check waits for goroutines to unwind before
// declaring a leak.
const maxRetry = 2 * time.Second

// Check fails t when goroutines beyond the pre-existing baseline of
// runtime/testing infrastructure are still running. Call it via defer
// at the start of the test so it runs after the test body finished.
func Check(t TB) {
	t.Helper()
	leaked := settle(nil)
	for _, g := range leaked {
		t.Errorf("leaked goroutine [%s]:\n%s", g.state, g.stack)
	}
}

// Main wraps a package test run with a whole-suite leak gate: it
// snapshots the live goroutines before any test runs, executes the
// suite, and turns a passing exit code into a failure if extra
// goroutines survive the run. Use from TestMain as
// os.Exit(leakcheck.Main(m)).
func Main(m Runner) int {
	baseline := map[int]bool{}
	for _, g := range snapshot() {
		baseline[g.id] = true
	}
	code := m.Run()
	if code != 0 {
		return code
	}
	leaked := settle(baseline)
	for _, g := range leaked {
		fmt.Printf("leakcheck: leaked goroutine after full test run [%s]:\n%s\n", g.state, g.stack)
	}
	if len(leaked) > 0 {
		return 1
	}
	return code
}

// settle retries the leak scan with exponential backoff until it comes
// back empty or the retry budget is spent, then returns the survivors.
// baseline goroutine ids (may be nil) are never reported.
func settle(baseline map[int]bool) []goroutine {
	var leaked []goroutine
	for delay, waited := time.Millisecond, time.Duration(0); ; {
		leaked = leaked[:0]
		for _, g := range snapshot() {
			if !baseline[g.id] && !benign(g) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || waited >= maxRetry {
			return leaked
		}
		time.Sleep(delay)
		waited += delay
		if delay *= 2; delay > 100*time.Millisecond {
			delay = 100 * time.Millisecond
		}
	}
}

// A goroutine is one parsed block of a runtime.Stack(all=true) dump.
type goroutine struct {
	id      int
	state   string
	top     string // the innermost function, e.g. "repro/internal/experiments.(*Session).work"
	created string // the "created by" function, "" for main/runtime goroutines
	stack   string // the block's full text, for the failure message
}

// snapshot parses the current all-goroutine stack dump, excluding the
// calling goroutine (the test itself, or TestMain).
func snapshot() []goroutine {
	all := stackDump(true)
	self := stackDump(false)
	selfID := parseHeader(firstLine(self))

	var out []goroutine
	for _, block := range strings.Split(strings.TrimSpace(all), "\n\n") {
		g, ok := parseBlock(block)
		if ok && g.id != selfID {
			out = append(out, g)
		}
	}
	return out
}

// stackDump captures runtime.Stack, growing the buffer until the dump
// fits.
func stackDump(all bool) string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, all)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, len(buf)*2)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// parseHeader extracts the goroutine id from a "goroutine N [state]:"
// line, or -1.
func parseHeader(line string) int {
	rest, ok := strings.CutPrefix(line, "goroutine ")
	if !ok {
		return -1
	}
	id := 0
	for i := 0; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		id = id*10 + int(rest[i]-'0')
	}
	if id == 0 {
		return -1
	}
	return id
}

// parseBlock parses one goroutine's section of the dump.
func parseBlock(block string) (goroutine, bool) {
	lines := strings.Split(block, "\n")
	if len(lines) < 2 {
		return goroutine{}, false
	}
	g := goroutine{stack: block}
	g.id = parseHeader(lines[0])
	if g.id < 0 {
		return goroutine{}, false
	}
	if open := strings.IndexByte(lines[0], '['); open >= 0 {
		if end := strings.IndexByte(lines[0][open:], ']'); end > 0 {
			g.state = lines[0][open+1 : open+end]
		}
	}
	// Function lines alternate with "\t<file>:<line>" location lines; the
	// first function line is the innermost frame.
	g.top = funcName(lines[1])
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "created by "); ok {
			// "created by pkg.Func in goroutine N" — keep the function.
			g.created, _, _ = strings.Cut(rest, " in goroutine")
			break
		}
	}
	return g, true
}

// funcName strips the argument list from a traceback function line:
// "repro/internal/x.worker(0x...)" -> "repro/internal/x.worker".
func funcName(line string) string {
	if i := strings.LastIndexByte(line, '('); i > 0 {
		return line[:i]
	}
	return line
}

// benign reports whether a goroutine belongs to the runtime or test
// infrastructure rather than code under test: the testing framework's
// own workers, runtime service goroutines (GC, finalizers, signal
// handling), and profiling support. Ownership is decided by the
// function that started the goroutine, not by where it is parked: a
// goroutine started by code under test is reported even while its
// innermost frame is an exported runtime call such as runtime.Gosched.
// Only a goroutine with no creator (main, runtime bootstrap) is judged
// by its innermost frame.
func benign(g goroutine) bool {
	owner := g.created
	if owner == "" {
		owner = g.top
	}
	for _, prefix := range []string{
		"testing.",
		"runtime.",
		"runtime/",
		"os/signal.",
	} {
		if strings.HasPrefix(owner, prefix) {
			return true
		}
	}
	return false
}

package leakcheck

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// recorder is a fake TB capturing Check's failures.
type recorder struct {
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestCheckCatchesLeak pins the detector's teeth: a goroutine parked
// on a channel nobody closed yet must be reported, with its stack
// naming this package; after release it must drain cleanly.
func TestCheckCatchesLeak(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		close(started)
		<-release
	}()
	<-started

	rec := &recorder{}
	Check(rec)
	if len(rec.errs) == 0 {
		t.Fatal("Check missed a goroutine parked on a channel")
	}
	if !strings.Contains(rec.errs[0], "repro/internal/leakcheck") {
		t.Errorf("leak report should name the leaking frame, got:\n%s", rec.errs[0])
	}

	close(release)
	done.Wait()
	rec = &recorder{}
	Check(rec)
	if len(rec.errs) != 0 {
		t.Errorf("Check still reports after the goroutine was reaped:\n%s", strings.Join(rec.errs, "\n"))
	}
}

// TestCheckWaitsForUnwind: a goroutine that has signaled and is about
// to exit must not be reported — the backoff loop gives it time.
func TestCheckWaitsForUnwind(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
	// The goroutines have signaled; some may still be unwinding.
	rec := &recorder{}
	Check(rec)
	if len(rec.errs) != 0 {
		t.Errorf("Check flagged reaped goroutines:\n%s", strings.Join(rec.errs, "\n"))
	}
}

func TestParseBlock(t *testing.T) {
	block := "goroutine 42 [chan receive]:\n" +
		"repro/internal/leakcheck.worker(0xc000010101)\n" +
		"\t/root/repo/internal/leakcheck/x.go:10 +0x25\n" +
		"created by repro/internal/leakcheck.Start in goroutine 1\n" +
		"\t/root/repo/internal/leakcheck/x.go:20 +0x58"
	g, ok := parseBlock(block)
	if !ok {
		t.Fatal("parseBlock rejected a well-formed block")
	}
	if g.id != 42 || g.state != "chan receive" {
		t.Errorf("header parse: id=%d state=%q", g.id, g.state)
	}
	if g.top != "repro/internal/leakcheck.worker" {
		t.Errorf("top frame = %q", g.top)
	}
	if g.created != "repro/internal/leakcheck.Start" {
		t.Errorf("created by = %q", g.created)
	}
}

func TestBenign(t *testing.T) {
	cases := []struct {
		top, created string
		want         bool
	}{
		{"testing.(*T).Run", "", true},
		{"runtime.gcBgMarkWorker", "runtime.gcBgMarkStartWorkers", true},
		{"os/signal.signal_recv", "os/signal.Notify.func1.1", true},
		{"repro/internal/experiments.(*Session).work", "repro/internal/experiments.(*Session).dispatch", false},
		{"time.Sleep", "repro/internal/foo.Start", false},
		{"runtime.Gosched", "repro/internal/foo.Start", false},
	}
	for _, c := range cases {
		got := benign(goroutine{top: c.top, created: c.created})
		if got != c.want {
			t.Errorf("benign(top=%q created=%q) = %v, want %v", c.top, c.created, got, c.want)
		}
	}
}

// TestMain wires the package's own suite through the whole-run gate,
// so leakcheck is exercised on itself.
func TestMain(m *testing.M) {
	os.Exit(Main(m))
}

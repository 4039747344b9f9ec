package experiments

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// waitDrained polls until the session's cache reports no in-flight
// calls, failing the test if the pool does not settle.
func waitDrained(t *testing.T, s *Session) simcache.Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.CacheStats()
		if st.InFlight == 0 {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCanceledCellsNeverSimulate pins the pool's cancellation contract
// deterministically: cells queued under an already-dead context are
// abandoned by the worker un-simulated, their waiters fail with the
// cancellation error instead of hanging, and the keys become free to
// recompute.
func TestCanceledCellsNeverSimulate(t *testing.T) {
	defer leakcheck.Check(t)
	o := tinyOptions()
	o.Workers = 1
	s := mustSession(t, o)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	w := workload.MustByGroup("MEM2")[0]
	var calls []*simcache.Call[*core.Result]
	var cfgs []core.Config
	for i := 0; i < 4; i++ {
		cfg := s.BaseConfig()
		cfg.Pipeline.ROBSize = 64 + 16*i
		cfgs = append(cfgs, cfg)
		calls = append(calls, s.StartRunCtx(ctx, w, cfg))
	}
	for i, c := range calls {
		if _, err := c.WaitCtx(context.Background()); !errors.Is(err, context.Canceled) {
			t.Fatalf("cell %d: err = %v, want context.Canceled", i, err)
		}
		if _, err := c.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cell %d WaitCtx: err = %v, want context.Canceled", i, err)
		}
	}
	st := waitDrained(t, s)
	if st.Canceled != 4 {
		t.Errorf("stats = %+v, want exactly 4 canceled (no cell simulated)", st)
	}
	if st.Entries != 0 {
		t.Errorf("stats = %+v, want abandoned entries unregistered", st)
	}

	// The same cells requested with a live context now simulate normally:
	// abandonment forgot the keys, it did not poison them.
	if _, err := s.RunConfigCtx(context.Background(), w, cfgs[0]); err != nil {
		t.Fatalf("recompute after abandonment: %v", err)
	}
}

// TestCanceledScenarioLeavesSessionDeterministic: a sweep canceled
// before it starts returns the context error without dispatching
// anything, and the session then serves the full sweep with output
// byte-identical to a fresh session — cancellation cannot change what
// anyone else computes.
func TestCanceledScenarioLeavesSessionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Workers = 4
	s := mustSession(t, o)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunScenarioCtx(ctx, sweepSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep err = %v, want context.Canceled", err)
	}
	if st := s.CacheStats(); st.Misses != 0 {
		t.Fatalf("canceled sweep dispatched %d cells, want 0", st.Misses)
	}

	got, err := s.RunScenarioCtx(context.Background(), sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mustSession(t, o).RunScenarioCtx(context.Background(), sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(emitAll(t, got), emitAll(t, want)) {
		t.Error("post-cancellation sweep diverges from a fresh session's")
	}
}

// TestCancelMidSweepDrains cancels a sweep while its cells are queued
// and running on a one-worker pool: the wait aborts promptly with the
// context error, whatever was running finishes into the cache, and the
// queue drains without simulating every cell (the grid is far larger
// than what can start during the cancellation window).
func TestCancelMidSweepDrains(t *testing.T) {
	defer leakcheck.Check(t)
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Workers = 1
	s := mustSession(t, o)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.RunScenarioCtx(ctx, sweepSpec())
		done <- err
	}()
	// Let the sweep dispatch and the worker pick up a first cell, then
	// pull the plug.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled sweep did not return")
	}
	st := waitDrained(t, s)
	// 2 workloads x 4 combos + references: the one-worker pool cannot
	// have started them all within the cancellation window, so abandoned
	// cells must exist unless the machine raced through the whole grid.
	if st.Canceled == 0 && st.Misses >= 10 {
		t.Errorf("no cell was abandoned and all %d dispatched cells ran", st.Misses)
	}
}

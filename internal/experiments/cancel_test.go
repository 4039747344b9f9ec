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
		calls = append(calls, start(ctx, s, w, cfg))
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
	live := context.Background()
	if _, err := start(live, s, w, cfgs[0]).WaitCtx(live); err != nil {
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

// stalledSession builds a session whose queue is never drained: with no
// worker allowed, every cell a call dispatches stays queued, so the call
// can only return through its own context.
func stalledSession(t *testing.T) *Session {
	t.Helper()
	o := tinyOptions()
	o.Groups = []string{"MEM2"}
	o.RegSizes = []int{64}
	s := mustSession(t, o)
	s.maxWorkers = 0
	return s
}

// TestCanceledWaitsReturnPromptly: a single cell's wait and every figure, each
// cancelled once its first cell is queued on a session that never
// simulates, return context.Canceled well within the deadline. A wait
// that dropped its caller's context would block until the deadline.
func TestCanceledWaitsReturnPromptly(t *testing.T) {
	w := workload.MustByGroup("MEM2")[0]
	for _, c := range []struct {
		name string
		call func(*Session, context.Context) error
	}{
		{"StartRunCtx", func(s *Session, ctx context.Context) error {
			_, err := start(ctx, s, w, s.BaseConfig()).WaitCtx(ctx)
			return err
		}},
		{"Fig1", func(s *Session, ctx context.Context) error { _, err := s.Fig1(ctx); return err }},
		{"Fig2", func(s *Session, ctx context.Context) error { _, err := s.Fig2(ctx); return err }},
		{"Fig3", func(s *Session, ctx context.Context) error { _, err := s.Fig3(ctx); return err }},
		{"Fig4", func(s *Session, ctx context.Context) error { _, err := s.Fig4(ctx); return err }},
		{"Fig5", func(s *Session, ctx context.Context) error { _, err := s.Fig5(ctx); return err }},
		{"Fig6", func(s *Session, ctx context.Context) error { _, err := s.Fig6(ctx); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := stalledSession(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- c.call(s, ctx) }()
			deadline := time.After(5 * time.Second)
			for s.SchedStats().QueuedJobs == 0 {
				select {
				case err := <-done:
					t.Fatalf("returned before queueing a cell: %v", err)
				case <-deadline:
					t.Fatal("no cell queued")
				case <-time.After(time.Millisecond):
				}
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-deadline:
				t.Fatal("still waiting on a queued cell after its context was cancelled")
			}
		})
	}
}

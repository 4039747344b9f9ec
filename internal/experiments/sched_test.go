package experiments

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simcache"
	"repro/internal/workload"
)

func TestSchedulerOptionValidates(t *testing.T) {
	o := tinyOptions()
	o.Scheduler = "bogus"
	if _, err := NewSession(o); err == nil {
		t.Fatal("NewSession accepted unknown scheduler policy")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the bad policy", err)
	}
	for _, policy := range append(sched.Names(), "") {
		o.Scheduler = policy
		if _, err := NewSession(o); err != nil {
			t.Errorf("NewSession(%q): %v", policy, err)
		}
	}
}

// TestFairMatchesFIFO extends the determinism contract to the scheduling
// policy: the fair scheduler reorders which queued job a worker pops
// next, and nothing else, so a sweep's bytes are identical across
// policies and worker counts — with or without a requester identity on
// the context.
func TestFairMatchesFIFO(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	run := func(policy string, workers int, ctx context.Context) []byte {
		oo := o
		oo.Scheduler = policy
		oo.Workers = workers
		rs, err := mustSession(t, oo).RunScenarioCtx(ctx, sweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		return emitAll(t, rs)
	}
	par := runtime.GOMAXPROCS(0)
	want := run(sched.PolicyFIFO, 1, context.Background())
	for _, tc := range []struct {
		name    string
		policy  string
		workers int
		ctx     context.Context
	}{
		{"fifo-parallel", sched.PolicyFIFO, par, context.Background()},
		{"fair-sequential", sched.PolicyFair, 1, context.Background()},
		{"fair-parallel", sched.PolicyFair, par, context.Background()},
		{"fair-attributed", sched.PolicyFair, par,
			sched.WithRequester(context.Background(), "client-a")},
	} {
		if got := run(tc.policy, tc.workers, tc.ctx); !bytes.Equal(got, want) {
			t.Errorf("%s: sweep bytes diverge from fifo/Workers=1", tc.name)
		}
	}
}

// TestStarvationRegression pins head-of-line starvation, both ways: a
// one-cell request enqueued behind a 16-cell sweep on a one-worker pool
// is served as soon as the in-flight sweep cell completes under the fair
// scheduler (long before the sweep drains), and dead last under FIFO.
func TestStarvationRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	const bigCells = 16
	for _, tc := range []struct {
		policy  string
		starved bool
	}{
		{sched.PolicyFair, false},
		{sched.PolicyFIFO, true},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			o := tinyOptions()
			o.Workers = 1
			o.Scheduler = tc.policy
			s := mustSession(t, o)
			w := workload.MustByGroup("MEM2")[0]

			// The sweep: 16 cells, each its own queued job. The single
			// worker starts on the first cell immediately.
			bigCtx := sched.WithRequester(context.Background(), "big")
			bigCalls := make([]*simcache.Call[*core.Result], bigCells)
			for i := range bigCalls {
				cfg := s.BaseConfig()
				cfg.Pipeline.ROBSize = 64 + 8*i
				bigCalls[i] = s.StartRunCtx(bigCtx, w, cfg)
			}

			// The probe: one cell from another client, queued behind the
			// entire sweep.
			smallCtx := sched.WithRequester(context.Background(), "small")
			smallCfg := s.BaseConfig()
			smallCfg.Pipeline.ROBSize = 500
			smallCall := s.StartRunCtx(smallCtx, w, smallCfg)

			if _, err := smallCall.Wait(); err != nil {
				t.Fatal(err)
			}
			// At the instant the probe completes, most of the sweep is
			// still pending under fair — queued or just popped, but
			// nowhere near simulated — and fully drained under FIFO. On a one-worker pool, pop order is completion
			// order, so an empty queue at probe completion proves every
			// sweep cell finished first.
			snap := s.SchedStats()
			pending := snap.QueuedCells + snap.InServiceCells
			if tc.starved {
				if snap.QueuedCells != 0 {
					t.Errorf("fifo: %d cells still queued after the probe completed, want 0 (probe must be served last)", snap.QueuedCells)
				}
			} else {
				if pending < bigCells/2 {
					t.Errorf("fair: only %d sweep cells pending at probe completion, want >= %d (probe must preempt the backlog)", pending, bigCells/2)
				}
				if _, ok := snap.Clients["big"]; !ok {
					t.Errorf("fair: pending sweep not attributed to its requester: %+v", snap.Clients)
				}
			}

			for i, c := range bigCalls {
				if _, err := c.Wait(); err != nil {
					t.Fatalf("sweep cell %d: %v", i, err)
				}
			}
			if snap := s.SchedStats(); snap.QueuedCells != 0 || len(snap.Clients) != 0 {
				waitDrained(t, s)
				if snap = s.SchedStats(); snap.QueuedCells != 0 || len(snap.Clients) != 0 {
					t.Errorf("drained scheduler not empty: %+v", snap)
				}
			}

			// Scheduling must not change answers: every cell matches a
			// fresh sequential FIFO session byte-for-byte (DeepEqual on
			// the raw results via the deterministic re-run).
			ref := mustSession(t, func() Options {
				oo := o
				oo.Scheduler = sched.PolicyFIFO
				return oo
			}())
			wantRes, err := ref.RunConfig(w, smallCfg)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := s.RunConfig(w, smallCfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("probe result diverges across schedulers:\n got: %+v\nwant: %+v",
					gotRes, wantRes)
			}
		})
	}
}

// TestSchedStatsIdle: a fresh session reports an empty snapshot with the
// configured policy name.
func TestSchedStatsIdle(t *testing.T) {
	for _, policy := range sched.Names() {
		o := tinyOptions()
		o.Scheduler = policy
		s := mustSession(t, o)
		snap := s.SchedStats()
		if snap.Policy != policy {
			t.Errorf("policy = %q, want %q", snap.Policy, policy)
		}
		if snap.QueuedCells != 0 || snap.InServiceCells != 0 || len(snap.Clients) != 0 {
			t.Errorf("idle snapshot not empty: %+v", snap)
		}
	}
}

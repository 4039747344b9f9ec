package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// TestStarvationRegression pins the head-of-line starvation fix: a
// one-cell request enqueued behind a 16-cell sweep on a one-worker pool
// is served as soon as the in-flight sweep cell completes, long before
// the sweep drains.
func TestStarvationRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	const bigCells = 16
	t.Run(sched.PolicyFair, func(t *testing.T) {
		o := tinyOptions()
		o.Workers = 1
		s := mustSession(t, o)
		w := workload.MustByGroup("MEM2")[0]

		// The sweep: 16 cells, each its own queued job. The single
		// worker starts on the first cell immediately.
		bigCtx := sched.WithRequester(context.Background(), "big")
		bigCalls := make([]*simcache.Call[*core.Result], bigCells)
		for i := range bigCalls {
			cfg := s.BaseConfig()
			cfg.Pipeline.ROBSize = 64 + 8*i
			bigCalls[i] = start(bigCtx, s, w, cfg)
		}

		// The probe: one cell from another client, queued behind the
		// entire sweep.
		smallCtx := sched.WithRequester(context.Background(), "small")
		smallCfg := s.BaseConfig()
		smallCfg.Pipeline.ROBSize = 500
		smallCall := start(smallCtx, s, w, smallCfg)

		ctx := context.Background()
		if _, err := smallCall.WaitCtx(ctx); err != nil {
			t.Fatal(err)
		}
		// At the instant the probe completes, most of the sweep is
		// still pending — queued or just popped, but nowhere near
		// simulated.
		snap := s.SchedStats()
		if pending := snap.QueuedCells + snap.InServiceCells; pending < bigCells/2 {
			t.Errorf("only %d sweep cells pending at probe completion, want >= %d (probe must preempt the backlog)", pending, bigCells/2)
		}
		if _, ok := snap.Clients["big"]; !ok {
			t.Errorf("pending sweep not attributed to its requester: %+v", snap.Clients)
		}

		for i, c := range bigCalls {
			if _, err := c.WaitCtx(ctx); err != nil {
				t.Fatalf("sweep cell %d: %v", i, err)
			}
		}
		// A worker releases a cell's in-service account before waking
		// its waiters, so the queue is empty the moment the last result
		// is in hand.
		if snap := s.SchedStats(); snap.QueuedCells != 0 || snap.InServiceCells != 0 || len(snap.Clients) != 0 {
			t.Errorf("drained queue not empty: %+v", snap)
		}

		// Scheduling must not change answers: the probe matches a
		// fresh Workers=1 session's unattributed run.
		wantRes, err := start(ctx, mustSession(t, o), w, smallCfg).WaitCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := start(ctx, s, w, smallCfg).WaitCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("probe result diverges from a fresh session:\n got: %+v\nwant: %+v",
				gotRes, wantRes)
		}
	})
}

// TestSchedStatsIdle: a fresh session reports an empty snapshot.
func TestSchedStatsIdle(t *testing.T) {
	snap := mustSession(t, tinyOptions()).SchedStats()
	if snap.QueuedJobs != 0 || snap.QueuedCells != 0 || snap.InServiceCells != 0 || len(snap.Clients) != 0 {
		t.Errorf("idle snapshot not empty: %+v", snap)
	}
}

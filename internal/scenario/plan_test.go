package scenario

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// stubRunner satisfies Runner without simulating: every run it is asked
// for is already complete, one thread at IPC 1.5. It counts BaseConfig
// calls, and so grid expansions.
type stubRunner struct {
	bases int
	runs  int
}

func (r *stubRunner) BaseConfig() core.Config {
	r.bases++
	return core.DefaultConfig()
}

func (r *stubRunner) StartRunCtx(ctx context.Context, _ workload.Workload, _ core.Config) *simcache.Call[*core.Result] {
	r.runs++
	c, _ := simcache.New[int, *core.Result](0, 0, nil).BeginCtx(ctx, 0)
	c.Fulfill(&core.Result{Threads: []core.ThreadResult{{IPC: 1.5}, {IPC: 0.5}}}, nil)
	return c
}

func planSpec() *Spec {
	rob := func(n int) Point { return Point{Delta: Delta{ROBSize: &n}} }
	return &Spec{
		Name:      "plan",
		Workloads: WorkloadSpec{Adhoc: []string{"art+mcf", "gzip+bzip2"}},
		Axes:      []Axis{{Name: "rob", Points: []Point{rob(64), rob(128), rob(256)}}},
		Metrics:   []string{"throughput", "fairness"},
	}
}

// TestPlanExpandsOnce: one request — plan, then execute with a streaming
// emit — expands the grid exactly once, and the executor reads the
// plan's cells instead of re-deriving them.
func TestPlanExpandsOnce(t *testing.T) {
	r := &stubRunner{}
	p, err := NewPlan(r, planSpec(), 6)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	rs, err := ExecuteStreamCtx(context.Background(), p, func(Row) error { rows++; return nil }, func() {})
	if err != nil {
		t.Fatal(err)
	}
	if r.bases != 1 {
		t.Errorf("BaseConfig called %d times for one request, want 1", r.bases)
	}
	if rows != 6 || len(rs.Rows) != 6 {
		t.Errorf("emitted %d rows, result set has %d, want 6", rows, len(rs.Rows))
	}
	// 6 grid cells plus one reference per benchmark per cell, each
	// requested once.
	if r.runs != 6+6*2 {
		t.Errorf("runner asked for %d runs, want %d", r.runs, 6+6*2)
	}
	for i, row := range rs.Rows {
		if row.Fingerprint != p.combos[i%3].Fingerprint {
			t.Errorf("row %d fingerprint %s, want the plan's %s", i, row.Fingerprint, p.combos[i%3].Fingerprint)
		}
	}
}

// TestPlanRejectsOversizedGridBeforeExpanding: a grid over the cell
// bound fails before any configuration is built.
func TestPlanRejectsOversizedGridBeforeExpanding(t *testing.T) {
	r := &stubRunner{}
	_, err := NewPlan(r, planSpec(), 5) // 2 workloads x 3 points
	if err == nil || !strings.Contains(err.Error(), "more than 5 cells") {
		t.Fatalf("err = %v, want the cell bound", err)
	}
	if r.bases != 0 {
		t.Errorf("BaseConfig called %d times before the bound rejected the grid, want 0", r.bases)
	}
	sp := planSpec()
	sp.Metrics = []string{"nope"}
	if _, err := NewPlan(r, sp, 0); err == nil {
		t.Error("invalid spec planned")
	}
}

// gatedRunner serves runs from a cache the test controls: a run whose
// key (workload name and ROB size) is listed in pending stays in flight
// until the test fulfills it; every other run completes at once.
type gatedRunner struct {
	cache   *simcache.Cache[string, *core.Result]
	pending map[string]bool
	calls   map[string]*simcache.Call[*core.Result]
}

func (g *gatedRunner) BaseConfig() core.Config { return core.DefaultConfig() }

func (g *gatedRunner) StartRunCtx(ctx context.Context, w workload.Workload, cfg core.Config) *simcache.Call[*core.Result] {
	key := fmt.Sprintf("%s@%d", w.Name(), cfg.Pipeline.ROBSize)
	c, created := g.cache.BeginCtx(ctx, key)
	if created {
		g.calls[key] = c
		if !g.pending[key] {
			c.Fulfill(&core.Result{Threads: []core.ThreadResult{{IPC: 1}, {IPC: 1}}}, nil)
		}
	}
	return c
}

// flushTrace runs planSpec's first workload under g and reports, for
// each flush, how many rows had been emitted; release fulfills the
// pending runs once the first flush (if any) has happened.
func flushTrace(t *testing.T, metrics []string, pending ...string) []int {
	t.Helper()
	g := &gatedRunner{cache: simcache.New[string, *core.Result](0, 0, nil), pending: map[string]bool{}, calls: map[string]*simcache.Call[*core.Result]{}}
	for _, k := range pending {
		g.pending[k] = true
	}
	sp := planSpec()
	sp.Workloads.Adhoc = sp.Workloads.Adhoc[:1]
	sp.Metrics = metrics
	p, err := NewPlan(g, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows int
	var flushes []int
	flushed := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteStreamCtx(ctx, p, func(Row) error { rows++; return nil }, func() {
			flushes = append(flushes, rows)
			select {
			case flushed <- struct{}{}:
			default:
			}
		})
		done <- err
	}()
	if len(pending) > 0 {
		// The sweep must flush before it can block on a pending run; one
		// that blocks without flushing is failed, not left hanging.
		select {
		case <-flushed:
		case <-time.After(10 * time.Second):
			cancel()
			<-done
			t.Fatalf("sweep blocked on %v without flushing", pending)
		}
		for _, k := range pending {
			g.calls[k].Fulfill(&core.Result{Threads: []core.ThreadResult{{IPC: 1}, {IPC: 1}}}, nil)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return flushes
}

// TestExecuteFlushesOnlyBeforeAWait: a fully cached sweep never
// flushes; a sweep whose next cell, or the next row's fairness
// reference, is still running flushes the rows emitted before it — and
// only then.
func TestExecuteFlushesOnlyBeforeAWait(t *testing.T) {
	if got := flushTrace(t, []string{"throughput"}); len(got) != 0 {
		t.Errorf("fully cached sweep flushed %v, want never", got)
	}
	if got := flushTrace(t, []string{"throughput"}, "adhoc/art+mcf@256"); !slices.Equal(got, []int{2}) {
		t.Errorf("pending last cell: flushes at rows %v, want [2]", got)
	}
	if got := flushTrace(t, []string{"fairness"}, "ST/mcf@128"); !slices.Equal(got, []int{1}) {
		t.Errorf("pending reference of row 2: flushes at rows %v, want [1]", got)
	}
}

// TestFinishedRowsStreamWhileStarting: rows whose runs finished inside
// StartRunCtx (a runner's cache or store hits) are emitted before the
// next workload's cells are started, not after the whole grid is.
func TestFinishedRowsStreamWhileStarting(t *testing.T) {
	r := newRecordingRunner(true)
	sp := planSpec()
	sp.Metrics = []string{"throughput"}
	p, err := NewPlan(r, sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	var seen []int
	r.onStart = func() { seen = append(seen, rows) }
	if _, err := ExecuteStreamCtx(context.Background(), p, func(Row) error { rows++; return nil }, func() {}); err != nil {
		t.Fatal(err)
	}
	// Two workloads of three cells each: the second workload's starts see
	// the first workload's three rows out.
	if want := []int{0, 0, 0, 3, 3, 3}; !slices.Equal(seen, want) {
		t.Errorf("rows emitted at each start = %v, want %v", seen, want)
	}
}

// recordingRunner records the requester stamp of every StartRunCtx call.
// A run completes at once when settle is set and otherwise never
// settles; onStart, when set, runs on each call.
type recordingRunner struct {
	cache   *simcache.Cache[string, *core.Result]
	settle  bool
	onStart func()
	stamps  []string
}

func newRecordingRunner(settle bool) *recordingRunner {
	return &recordingRunner{cache: simcache.New[string, *core.Result](0, 0, nil), settle: settle}
}

func (r *recordingRunner) BaseConfig() core.Config { return core.DefaultConfig() }

func (r *recordingRunner) StartRunCtx(ctx context.Context, w workload.Workload, cfg core.Config) *simcache.Call[*core.Result] {
	r.stamps = append(r.stamps, sched.Requester(ctx))
	if r.onStart != nil {
		r.onStart()
	}
	c, created := r.cache.BeginCtx(ctx, w.Name()+"@"+cfg.Fingerprint())
	if created && r.settle {
		c.Fulfill(&core.Result{Threads: []core.ThreadResult{{IPC: 1}, {IPC: 1}}}, nil)
	}
	return c
}

// TestEveryStartCarriesTheRequester: the sweep hands its context to
// every dispatch, grid cells and fairness references alike, so the
// runner's fair queue charges all of a request's work to the client
// that sent it.
func TestEveryStartCarriesTheRequester(t *testing.T) {
	r := newRecordingRunner(true)
	p, err := NewPlan(r, planSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := sched.WithRequester(context.Background(), "client-a")
	if _, err := ExecuteStreamCtx(ctx, p, nil, nil); err != nil {
		t.Fatal(err)
	}
	// 6 grid cells plus one reference per benchmark per cell.
	if len(r.stamps) != 6+6*2 {
		t.Fatalf("runner saw %d starts, want %d", len(r.stamps), 6+6*2)
	}
	for i, s := range r.stamps {
		if s != "client-a" {
			t.Errorf("start %d carried requester %q, want client-a", i, s)
		}
	}
}

// TestCanceledSweepReturnsWhileCellsRun: a sweep whose cells never
// settle returns its context's error promptly once that context is
// cancelled. Here the context is cancelled by the first dispatch, so the
// sweep can only return through its own waits.
func TestCanceledSweepReturnsWhileCellsRun(t *testing.T) {
	r := newRecordingRunner(false)
	p, err := NewPlan(r, planSpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.onStart = cancel
	done := make(chan error, 1)
	go func() {
		_, err := ExecuteStreamCtx(ctx, p, func(Row) error { return nil }, func() {})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sweep still waiting on an unsettled cell")
	}
}

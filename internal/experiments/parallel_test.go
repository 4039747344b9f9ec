package experiments

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestParallelMatchesSequential asserts the harness's core determinism
// contract: a session dispatching onto four workers produces figures (and
// raw simulation Results) bit-identical to a one-worker session. Every
// simulation is deterministic given its configuration, and reductions
// always collect in a fixed order, so Workers must only change wall-clock
// time.
func TestParallelMatchesSequential(t *testing.T) {
	defer leakcheck.Check(t)
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Groups = []string{"MEM2"}

	oSeq := o
	oSeq.Workers = 1
	oPar := o
	oPar.Workers = 4
	seq, par := mustSession(t, oSeq), mustSession(t, oPar)

	sf, err := seq.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := par.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf, pf) {
		t.Errorf("Fig1 diverges between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", sf, pf)
	}

	// Fig5 reuses the cached ICOUNT/RaT runs plus the register occupancy
	// channel of each Result — a second reduction over the same raw data.
	sf5, err := seq.Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pf5, err := par.Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf5, pf5) {
		t.Errorf("Fig5 diverges between Workers=1 and Workers=4:\nseq: %+v\npar: %+v", sf5, pf5)
	}

	// Compare one raw Result end to end (every counter, not just the
	// figure-level aggregates).
	w := workload.MustByGroup("MEM2")[0]
	cfg := seq.BaseConfig()
	cfg.Policy = core.PolicyRaT
	ctx := context.Background()
	sr, err := start(ctx, seq, w, cfg).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := start(ctx, par, w, cfg).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr, pr) {
		t.Errorf("raw Result diverges for %s:\nseq: %+v\npar: %+v", w.Name(), sr, pr)
	}
}

// sweepSpec is a small two-axis scenario used by the determinism tests;
// fairness pulls single-thread references through the cache as well.
func sweepSpec() *scenario.Spec {
	rat, icount := "RaT", "ICOUNT"
	rob128, rob256 := 128, 256
	return &scenario.Spec{
		Name:      "determinism-sweep",
		Workloads: scenario.WorkloadSpec{Groups: []string{"MEM2"}, PerGroup: 2},
		Axes: []scenario.Axis{
			{Name: "policy", Points: []scenario.Point{
				{Label: icount, Delta: scenario.Delta{Policy: &icount}},
				{Label: rat, Delta: scenario.Delta{Policy: &rat}},
			}},
			{Name: "rob", Points: []scenario.Point{
				{Label: "128", Delta: scenario.Delta{ROBSize: &rob128}},
				{Label: "256", Delta: scenario.Delta{ROBSize: &rob256}},
			}},
		},
		Metrics: []string{"throughput", "fairness"},
	}
}

// emitAll renders a result set in every machine format, concatenated.
func emitAll(t *testing.T, rs *scenario.ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, format := range []string{"ndjson", "json", "csv", "table"} {
		if err := rs.Emit(&buf, format); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestScenarioDeterministicAcrossWorkers extends the determinism
// contract to the scenario engine's structured output: a ResultSet (and
// every serialization of it — the bytes an smtsimd client receives) is
// identical for Workers=1 and Workers=GOMAXPROCS, and for a sweep
// attributed to a named requester (the fair queue reorders which job a
// worker pops next, and nothing else).
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	run := func(workers int, ctx context.Context) *scenario.ResultSet {
		oo := o
		oo.Workers = workers
		rs, err := mustSession(t, oo).RunScenarioCtx(ctx, sweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	bg := context.Background()
	par := runtime.GOMAXPROCS(0)
	seqRS := run(1, bg)
	seq := emitAll(t, seqRS)
	for _, tc := range []struct {
		name string
		rs   *scenario.ResultSet
	}{
		{"parallel", run(par, bg)},
		{"attributed", run(par, sched.WithRequester(bg, "client-a"))},
	} {
		if !reflect.DeepEqual(seqRS.Rows, tc.rs.Rows) {
			t.Errorf("%s: ResultSet rows diverge from Workers=1 (Workers=%d)", tc.name, par)
		}
		if got := emitAll(t, tc.rs); !bytes.Equal(seq, got) {
			t.Errorf("%s: serialized output diverges from Workers=1 (Workers=%d):\nseq:\n%s\ngot:\n%s",
				tc.name, par, seq, got)
		}
	}
}

// TestEvictionMidSweepDeterminism runs the same sweep on a session whose
// cache bound is far below the sweep's working set, so completed entries
// are evicted while later cells (and the fairness references re-reading
// shared configurations) are still in flight. Eviction must only cost
// recomputation: the output stays byte-identical to an unbounded run,
// and the stats prove the eviction path actually executed mid-sweep.
func TestEvictionMidSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Workers = 4

	unbounded := mustSession(t, o)
	want, err := unbounded.RunScenarioCtx(context.Background(), sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := unbounded.CacheStats(); st.Evictions != 0 {
		t.Fatalf("unbounded session evicted: %+v", st)
	}

	oBound := o
	oBound.CacheEntries = 2
	bounded := mustSession(t, oBound)
	got, err := bounded.RunScenarioCtx(context.Background(), sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := bounded.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("2-entry bound produced no evictions mid-sweep: %+v", st)
	}
	if st.Entries > 2+st.InFlight {
		t.Errorf("cache exceeded its bound at rest: %+v", st)
	}
	if !bytes.Equal(emitAll(t, want), emitAll(t, got)) {
		t.Error("bounded-cache sweep output diverges from unbounded sweep")
	}

	// A second pass over the evicted grid recomputes (misses grow) but
	// still reproduces the identical bytes.
	again, err := bounded.RunScenarioCtx(context.Background(), sweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(emitAll(t, want), emitAll(t, again)) {
		t.Error("post-eviction recomputation diverges")
	}
	if st2 := bounded.CacheStats(); st2.Misses <= st.Misses {
		t.Errorf("second sweep over a 2-entry cache added no misses: %+v -> %+v", st, st2)
	}
}

// TestSessionSharesRunsAcrossConcurrentFigures checks the singleflight
// property under concurrency: figures requested from multiple goroutines
// still simulate each (workload, policy) point exactly once.
func TestSessionSharesRunsAcrossConcurrentFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Groups = []string{"MEM2"}
	o.Workers = 4
	s := mustSession(t, o)

	errs := make(chan error, 2)
	go func() { _, err := s.Fig1(context.Background()); errs <- err }()
	go func() { _, err := s.Fig3(context.Background()); errs <- err }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Fig1 needs ICOUNT/STALL/FLUSH/RaT; Fig3 adds DCRA and HillClimbing:
	// 6 policies on 1 workload = 6 runs, shared, not 4+6. Fig1's fairness
	// metric adds one single-thread reference per benchmark (the combos
	// differ only in policy, so all four collapse onto one ICOUNT
	// reference config): 2 more entries for the 2-thread workload.
	if n := s.cache.Stats().Entries; n != 8 {
		t.Errorf("cache holds %d entries, want 8 (6 shared runs + 2 references)", n)
	}
}

package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/tracestore"
)

// tinyOptions keeps harness tests fast: one workload per group, short
// traces, two groups.
func tinyOptions() Options {
	o := Quick()
	o.TraceLen = 4_000
	o.PerGroup = 1
	o.Groups = []string{"MIX2", "MEM2"}
	o.RegSizes = []int{64, 320}
	return o
}

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"512 shared entries", "320 / 320", "400 cycles", "perceptron"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2()
	for _, want := range []string{"ILP2", "MEM4", "art,mcf,swim,twolf"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 missing %q:\n%s", want, t2)
		}
	}
}

// mustSession builds a session or fails the test.
func mustSession(t *testing.T, o Options) *Session {
	t.Helper()
	s, err := NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig1ShapeAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	s := mustSession(t, tinyOptions())
	f, err := s.Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Groups) != 2 || len(f.Policies) != 4 {
		t.Fatalf("figure shape: %d groups, %d policies", len(f.Groups), len(f.Policies))
	}
	for _, g := range f.Groups {
		for _, p := range f.Policies {
			if f.Throughput[g][p] <= 0 {
				t.Errorf("%s/%s throughput not positive", g, p)
			}
			if f.Fairness[g][p] <= 0 {
				t.Errorf("%s/%s fairness not positive", g, p)
			}
		}
	}
	out := f.String()
	for _, want := range []string{"Throughput", "Fairness", "MEM2", "RaT"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	// The session must cache: a second Fig1 reuses every run.
	before := s.cache.Stats().Entries
	if _, err := s.Fig1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := s.cache.Stats().Entries; after != before {
		t.Fatalf("cache grew on repeat: %d -> %d", before, after)
	}
}

func TestFig3Normalization(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	s := mustSession(t, tinyOptions())
	f, err := s.Fig3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range f.Groups {
		if ic := f.ED2[g][core.PolicyICount]; ic < 0.999 || ic > 1.001 {
			t.Errorf("%s: ICOUNT ED2 normalized to %v, want 1.0", g, ic)
		}
	}
}

func TestFig4Renders(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Groups = []string{"MEM2"}
	s := mustSession(t, o)
	f, err := s.Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f.Prefetching["MEM2"] == 0 {
		t.Error("prefetching contribution exactly zero (suspicious)")
	}
	if !strings.Contains(f.String(), "prefetching") {
		t.Error("rendering missing column")
	}
}

func TestFig5RunaheadLighter(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Groups = []string{"MEM2"}
	s := mustSession(t, o)
	f, err := s.Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if f.Runahead["MEM2"] >= f.Normal["MEM2"] {
		t.Errorf("runahead occupancy (%.1f) not below normal (%.1f)",
			f.Runahead["MEM2"], f.Normal["MEM2"])
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := tinyOptions()
	o.Groups = []string{"MEM2"}
	s := mustSession(t, o)
	f, err := s.Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Throughput must not increase when the register file shrinks 320->64
	// (within noise), for either policy.
	for _, p := range []core.PolicyKind{core.PolicyFLUSH, core.PolicyRaT} {
		small := f.Throughput["MEM2"][64][p]
		big := f.Throughput["MEM2"][320][p]
		if small > 1.15*big {
			t.Errorf("%s: 64-reg throughput (%.3f) implausibly above 320-reg (%.3f)",
				p, small, big)
		}
	}
	if !strings.Contains(f.String(), "RaT@320") {
		t.Error("rendering missing column")
	}
}

func TestOptionsSelection(t *testing.T) {
	o := Options{}
	if got := len(o.groups()); got != 6 {
		t.Fatalf("default groups = %d", got)
	}
	o.Groups = []string{"MEM2"}
	if got := len(o.groups()); got != 1 {
		t.Fatalf("filtered groups = %d", got)
	}
}

// TestNewSessionValidatesGroups covers the former panic path: an unknown
// group name straight from a -groups flag must come back as an error
// listing the valid names.
func TestNewSessionValidatesGroups(t *testing.T) {
	o := Quick()
	o.Groups = []string{"MEM2", "NOPE"}
	if _, err := NewSession(o); err == nil {
		t.Fatal("unknown group accepted")
	} else if !strings.Contains(err.Error(), "ILP2") {
		t.Fatalf("error does not list valid groups: %v", err)
	}
}

// TestSweepSharesTraces: a sweep's trace tier serves every cell of a
// workload from one generation per context, and the single-thread
// fairness references hit the traces the SMT runs already generated
// (context 0 has the same identity in both).
func TestSweepSharesTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	s := mustSession(t, tinyOptions())
	if _, err := s.RunScenarioCtx(context.Background(), sweepSpec()); err != nil {
		t.Fatal(err)
	}
	st := s.TraceStats()
	if st.Generated == 0 {
		t.Fatal("sweep generated no traces")
	}
	if st.Hits == 0 {
		t.Errorf("trace tier saw no hits across an 8-cell sweep: %+v", st)
	}
	// Every distinct identity generated exactly once.
	if st.Generated != st.Misses {
		t.Errorf("generated %d != misses %d: some identity generated twice",
			st.Generated, st.Misses)
	}
}

// TestTraceTierBoundedByWorkers: cold traffic of distinct specs leaves a
// 2-worker session's trace tier at most MaxThreads × 3 = 24 traces and
// within its byte bound, and the bound still keeps the traces the last
// spec's cells read: replaying that spec after its results left the
// cache simulates again without generating a trace.
func TestTraceTierBoundedByWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	const specs = 40
	o := Quick()
	o.Workers = 2
	o.CacheEntries = 1
	s := mustSession(t, o)
	coldSpec := func(i int) *scenario.Spec {
		sp, err := scenario.Parse(strings.NewReader(fmt.Sprintf(`{
  "name": "cold-%d",
  "workloads": {"adhoc": ["A/art+mcf", "B/gzip+bzip2"]},
  "base": {"traceLen": 3000, "seed": %d}
}`, i, 1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	ctx := context.Background()
	var last *scenario.ResultSet
	for i := 0; i < specs; i++ {
		rs, err := s.RunScenarioCtx(ctx, coldSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		last = rs
	}
	st := s.TraceStats()
	if st.MaxEntries != 24 || st.Entries > 24 || st.Bytes > tracestore.DefaultMemBytes {
		t.Errorf("trace tier %+v: want maxEntries 24, at most 24 entries and at most %d bytes",
			st, tracestore.DefaultMemBytes)
	}
	if st.Generated != st.Misses {
		t.Errorf("trace tier %+v: generated != misses, some identity generated twice", st)
	}

	before, cacheBefore := st, s.CacheStats()
	rs, err := s.RunScenarioCtx(ctx, coldSpec(specs-1))
	if err != nil {
		t.Fatal(err)
	}
	after, cacheAfter := s.TraceStats(), s.CacheStats()
	if cacheAfter.Misses == cacheBefore.Misses {
		t.Fatalf("replay missed no cell in a 1-entry cache: %+v", cacheAfter)
	}
	if after.Generated != before.Generated || after.Hits == before.Hits {
		t.Errorf("replay moved the trace tier from %+v to %+v, want hits and no generation", before, after)
	}
	if !reflect.DeepEqual(rs.Rows, last.Rows) {
		t.Error("replay rows differ from the first run")
	}
}

// TestFairnessReferenceIsCoreReference: the reference a fairness sweep
// simulates is core's single definition of it — the cell deep-equals
// core.RunSingle on the sweep's machine, and looking it up through
// core.Reference afterwards is a cache hit on the sweep's own entry, with
// no extra miss.
func TestFairnessReferenceIsCoreReference(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	ctx := context.Background()
	s := mustSession(t, tinyOptions())
	rat := string(core.PolicyRaT)
	sp := &scenario.Spec{
		Name:      "fairness-reference",
		Workloads: scenario.WorkloadSpec{Groups: []string{"MEM2"}, PerGroup: 1},
		Axes: []scenario.Axis{{Name: "policy", Points: []scenario.Point{
			{Label: rat, Delta: scenario.Delta{Policy: &rat}},
		}}},
		Metrics: []string{"fairness"},
	}
	rs, err := s.RunScenarioCtx(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rs.Combos[0].Config
	for _, b := range rs.Workloads[0].Benchmarks {
		before := s.CacheStats()
		w, ref := core.Reference(cfg, b)
		got, err := start(ctx, s, w, ref).WaitCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		after := s.CacheStats()
		if after.Misses != before.Misses || after.Hits != before.Hits+1 {
			t.Errorf("%s: reference lookup moved the cache from %+v to %+v, want one hit and no miss", b, before, after)
		}
		want, err := core.RunSingle(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sweep reference diverges from core.RunSingle:\n got: %+v\nwant: %+v", b, got, want)
		}
	}
}

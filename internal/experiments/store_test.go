package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/simcache"
	"repro/internal/workload"
)

// storeOptions is the smallest session that exercises the disk tier.
func storeOptions(dir string) Options {
	o := Default()
	o.TraceLen = 1500
	o.MaxCycles = 2_000_000
	o.Workers = 2
	o.StoreDir = dir
	return o
}

// storeSpec is a 1×2 sweep, small enough to run twice in a test.
var storeSpec = &scenario.Spec{
	Name:      "store-test",
	Workloads: scenario.WorkloadSpec{Adhoc: []string{"art+mcf"}},
	Axes: []scenario.Axis{{Name: "rob", Points: []scenario.Point{
		{Label: "64", Delta: scenario.Delta{ROBSize: intp(64)}},
		{Label: "128", Delta: scenario.Delta{ROBSize: intp(128)}},
	}}},
	Metrics: []string{"throughput", "l2mpki"},
}

func intp(v int) *int { return &v }

// start prepares one cell as a plan would and starts it: the session's
// only way to start a cell, for tests that start cells one by one.
func start(ctx context.Context, s *Session, w workload.Workload, cfg core.Config) *simcache.Call[*core.Result] {
	return s.StartRunCtx(ctx, s.Prepare(w, w.Name(), &cfg, cfg.Canonical()))
}

// readyProbe runs a plan on a session and fails the test at the first
// StartRunCtx that returns a call still pending.
type readyProbe struct {
	*Session
	t     *testing.T
	cells int
}

func (r *readyProbe) StartRunCtx(ctx context.Context, sc scenario.Cell) *simcache.Call[*core.Result] {
	c := r.Session.StartRunCtx(ctx, sc)
	if cl := sc.(*cell); !c.Ready() {
		r.t.Fatalf("StartRunCtx of stored cell %s (ROB %d) returned a pending call: the cell queued", cl.name, cl.config.Pipeline.ROBSize)
	}
	r.cells++
	return c
}

// TestStorePersistsAcrossSessions is the warm-restart contract at the
// session layer: a second session over the same store directory serves a
// previously-run sweep entirely from disk — byte-identical output, zero
// simulations (every memory miss becomes a disk hit). Every stored cell is
// served inside StartRunCtx: the warm session's pool can start no worker,
// so a cell that queued would never settle.
func TestStorePersistsAcrossSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	dir := t.TempDir()

	cold := mustSession(t, storeOptions(dir))
	rs1, err := cold.RunScenarioCtx(context.Background(), storeSpec)
	if err != nil {
		t.Fatal(err)
	}
	st := cold.StoreStats()
	if st.Hits != 0 || st.Misses == 0 || st.Files == 0 || st.Bytes == 0 {
		t.Fatalf("cold session store stats = %+v, want only misses and a populated store", st)
	}
	if st.WriteErrors != 0 {
		t.Fatalf("cold session write errors: %+v", st)
	}

	// "Restart": a fresh session (empty memory cache) on the same dir.
	warm := mustSession(t, storeOptions(dir))
	warm.maxWorkers = 0
	probe := &readyProbe{Session: warm, t: t}
	p, err := scenario.NewPlan(probe, storeSpec, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := scenario.ExecuteStreamCtx(context.Background(), p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if probe.cells != len(rs1.Rows) {
		t.Errorf("warm session started %d cells, want %d", probe.cells, len(rs1.Rows))
	}
	if q := warm.SchedStats(); q.QueuedCells != 0 || q.InServiceCells != 0 {
		t.Errorf("warm session queue = %+v, want no cell queued or in service", q)
	}
	st = warm.StoreStats()
	if st.Misses != 0 {
		t.Errorf("warm session simulated %d cells, want 0 (all from disk): %+v", st.Misses, st)
	}
	if st.Hits == 0 {
		t.Errorf("warm session had no disk hits: %+v", st)
	}
	if !reflect.DeepEqual(rs1.Rows, rs2.Rows) {
		t.Errorf("warm rows diverge from cold rows:\ncold: %+v\nwarm: %+v", rs1.Rows, rs2.Rows)
	}
	for _, format := range []string{"table", "json", "csv", "ndjson"} {
		var a, b bytes.Buffer
		if err := rs1.Emit(&a, format); err != nil {
			t.Fatal(err)
		}
		if err := rs2.Emit(&b, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s output differs across a store-backed restart:\ncold:\n%s\nwarm:\n%s",
				format, a.Bytes(), b.Bytes())
		}
	}
}

// TestStoreCorruptionRecomputes: a session facing a damaged store entry
// silently recomputes the same result and heals the entry.
func TestStoreCorruptionRecomputes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	ctx := context.Background()
	dir := t.TempDir()
	w := workload.Workload{Group: "AD", Benchmarks: []string{"art", "mcf"}}

	cold := mustSession(t, storeOptions(dir))
	want, err := start(ctx, cold, w, cold.BaseConfig()).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate every stored entry.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := mustSession(t, storeOptions(dir))
	got, err := start(ctx, warm, w, warm.BaseConfig()).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("recomputed result differs from original:\nwant: %+v\n got: %+v", want, got)
	}
	st := warm.StoreStats()
	if st.Misses == 0 || st.Hits != 0 {
		t.Errorf("corrupt entry did not read as a miss: %+v", st)
	}

	// The rewrite healed the store: a third session hits.
	healed := mustSession(t, storeOptions(dir))
	if _, err := start(ctx, healed, w, healed.BaseConfig()).WaitCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if st := healed.StoreStats(); st.Hits == 0 || st.Misses != 0 {
		t.Errorf("healed entry did not serve a hit: %+v", st)
	}
}

// TestUnwritableStoreKeepsResults sabotages the store mid-session: its
// directory is replaced by a regular file, so every write fails with
// ENOTDIR (even for root). Persistence is write-behind and best-effort,
// so a cell's wait must still return exactly the result of an unstored
// session while the failures are counted.
func TestUnwritableStoreKeepsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	ctx := context.Background()
	dir := t.TempDir()
	w := workload.Workload{Group: "AD", Benchmarks: []string{"art", "mcf"}}

	s := mustSession(t, storeOptions(dir))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := start(ctx, s, w, s.BaseConfig()).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	plain := mustSession(t, storeOptions(""))
	want, err := start(ctx, plain, w, plain.BaseConfig()).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("result under a failing store differs from an unstored run:\nwant: %+v\n got: %+v", want, got)
	}
	if st := s.StoreStats(); st.WriteErrors == 0 || st.Hits != 0 {
		t.Errorf("store stats = %+v, want counted write errors and no hits", st)
	}
}

// TestStorelessSessionUnchanged: sessions without StoreDir report zero
// store stats and never touch disk.
func TestStorelessSessionUnchanged(t *testing.T) {
	s := mustSession(t, tinyOptions())
	if st := s.StoreStats(); st != (s.StoreStats()) || st.Hits != 0 || st.Files != 0 {
		t.Errorf("storeless session store stats = %+v, want zero", st)
	}
}

// namingProbe records the store entry name of every cell its session
// prepares, and fails the test at a prepared key other than the one
// Get and Put build from the cell's workload and configuration.
type namingProbe struct {
	*Session
	t     *testing.T
	names map[string]bool
}

func (r *namingProbe) Prepare(w workload.Workload, name string, cfg *core.Config, canonical string) scenario.Cell {
	c := r.Session.Prepare(w, name, cfg, canonical)
	got, want := c.(*cell).key, resultstore.NewKey(w.Name(), cfg.Canonical())
	if got != want {
		r.t.Fatalf("cell %s (ROB %d, %s) prepared key %s, want %s", w.Name(), cfg.Pipeline.ROBSize, cfg.Policy, got.Name(), want.Name())
	}
	r.names[got.Name()] = true
	return c
}

// TestPreparedKeysNameTheStoredEntries: after a cold run of a sweep that
// reads fairness, the store directory holds exactly the entries the plan
// prepared keys for, grid cells and references together, and each key
// is the one Get and Put build for the cell. A prepared key that named
// another file than the write, or than an earlier release's entry, would
// miss forever.
func TestPreparedKeysNameTheStoredEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	dir := t.TempDir()
	probe := &namingProbe{Session: mustSession(t, storeOptions(dir)), t: t, names: map[string]bool{}}
	// Under RaT, the references' machine (ICOUNT) differs from the grid's.
	rat := string(core.PolicyRaT)
	sp := *storeSpec
	sp.Base.Policy = &rat
	sp.Metrics = []string{"throughput", "fairness"}
	p, err := scenario.NewPlan(probe, &sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2 grid cells, and art's and mcf's references on both machines.
	if len(probe.names) != 2+2*2 {
		t.Fatalf("plan prepared %d distinct keys, want 6", len(probe.names))
	}
	if _, err := scenario.ExecuteStreamCtx(context.Background(), p, nil, nil); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string]bool{}
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".smtres" {
			stored[de.Name()] = true
		}
	}
	if !reflect.DeepEqual(stored, probe.names) {
		t.Errorf("stored entries %v, want the prepared keys %v", stored, probe.names)
	}
}

// TestPlanSizeCountsEntryNames: on a session with a store, every cell a
// plan adds grows the plan's SizeBytes by at least its entry name, so the
// daemon's plan cache bound counts what the prepared keys retain.
func TestPlanSizeCountsEntryNames(t *testing.T) {
	s := mustSession(t, storeOptions(t.TempDir()))
	size := func(workloads ...string) int64 {
		sp := *storeSpec
		sp.Workloads = scenario.WorkloadSpec{Adhoc: workloads}
		p, err := scenario.NewPlan(s, &sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p.SizeBytes()
	}
	one, three := size("art+mcf"), size("art+mcf", "gzip+bzip2", "swim+twolf")
	name := int64(len(resultstore.NewKey("", "").Name()))
	if added := int64(2 * len(storeSpec.Axes[0].Points)); three-one < added*name {
		t.Errorf("%d more cells grew the plan by %d bytes, want at least %d (their entry names)", added, three-one, added*name)
	}
}

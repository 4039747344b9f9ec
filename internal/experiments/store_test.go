package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
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

// readyProbe runs a plan on a session and fails the test at the first
// StartRunCtx that returns a call still pending.
type readyProbe struct {
	*Session
	t     *testing.T
	cells int
}

func (r *readyProbe) StartRunCtx(ctx context.Context, w workload.Workload, cfg core.Config) *simcache.Call[*core.Result] {
	c := r.Session.StartRunCtx(ctx, w, cfg)
	if !c.Ready() {
		r.t.Fatalf("StartRunCtx of stored cell %s (ROB %d) returned a pending call: the cell queued", w.Name(), cfg.Pipeline.ROBSize)
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
	want, err := cold.StartRunCtx(ctx, w, cold.BaseConfig()).WaitCtx(ctx)
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
	got, err := warm.StartRunCtx(ctx, w, warm.BaseConfig()).WaitCtx(ctx)
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
	if _, err := healed.StartRunCtx(ctx, w, healed.BaseConfig()).WaitCtx(ctx); err != nil {
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
	got, err := s.StartRunCtx(ctx, w, s.BaseConfig()).WaitCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}

	plain := mustSession(t, storeOptions(""))
	want, err := plain.StartRunCtx(ctx, w, plain.BaseConfig()).WaitCtx(ctx)
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

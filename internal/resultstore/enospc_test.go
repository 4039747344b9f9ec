package resultstore_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/resultstore"
	"repro/internal/scenario"
)

// tempFiles lists the in-progress write files left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			out = append(out, de.Name())
		}
	}
	return out
}

// TestPutOnFullDisk: a write that runs out of space fails Put with the
// ENOSPC error, counts one write error, leaves no temp file behind and
// leaves the entries already stored intact.
func TestPutOnFullDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := resultstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	res := &core.Result{Workload: "art+mcf", Policy: core.PolicyKind("RaT"), Cycles: 12345}
	if err := s.Put("kept", cfg, res); err != nil {
		t.Fatal(err)
	}
	resultstore.FailWrites(t, syscall.ENOSPC)
	if err := s.Put("lost", cfg, res); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on a full disk returned %v, want ENOSPC", err)
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Files != 1 {
		t.Errorf("stats = %+v, want 1 write error and the 1 earlier entry", st)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Errorf("failed write left temp files %v", tmp)
	}
	if _, ok := s.Get("lost", cfg); ok {
		t.Error("the failed entry reads as a hit")
	}
	if _, ok := s.Get("kept", cfg); !ok {
		t.Error("the entry stored before the failure is gone")
	}
}

// TestSessionOnFullDisk: a session whose result directory fails every
// write with ENOSPC returns exactly the results of an unstored session,
// and its trace tier still shares traces across cells.
func TestSessionOnFullDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	rob64, rob128 := 64, 128
	spec := &scenario.Spec{
		Name:      "full-disk",
		Workloads: scenario.WorkloadSpec{Adhoc: []string{"art+mcf"}},
		Axes: []scenario.Axis{{Name: "rob", Points: []scenario.Point{
			{Label: "64", Delta: scenario.Delta{ROBSize: &rob64}},
			{Label: "128", Delta: scenario.Delta{ROBSize: &rob128}},
		}}},
		Metrics: []string{"throughput", "fairness"},
	}
	options := func(storeDir string) experiments.Options {
		o := experiments.Default()
		o.TraceLen = 1500
		o.MaxCycles = 2_000_000
		o.Workers = 2
		o.StoreDir = storeDir
		return o
	}
	run := func(o experiments.Options) (*experiments.Session, *scenario.ResultSet) {
		s, err := experiments.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.RunScenarioCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		return s, rs
	}
	_, want := run(options(""))

	resultstore.FailWrites(t, syscall.ENOSPC)
	storeDir := t.TempDir()
	s, got := run(options(storeDir))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("results on a full disk differ from an unstored run:\nwant: %+v\n got: %+v", want.Rows, got.Rows)
	}
	if st := s.StoreStats(); st.WriteErrors == 0 || st.Files != 0 {
		t.Errorf("result store stats = %+v, want write errors and no files", st)
	}
	if ts := s.TraceStats(); ts.Generated == 0 || ts.Hits == 0 || ts.Generated != ts.Misses {
		t.Errorf("trace tier stats = %+v, want every identity generated once and later cells served as hits", ts)
	}
	if tmp := tempFiles(t, storeDir); len(tmp) != 0 {
		t.Errorf("failed writes left temp files %v", tmp)
	}
}

package blobstore_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/internal/blobstore"
	"repro/internal/experiments"
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
	s, err := blobstore.Open(dir, 0, blobstore.Format{Magic: "FULL", Version: 1, Suffix: ".blob"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("kept"), []byte("stored before the disk filled")); err != nil {
		t.Fatal(err)
	}
	blobstore.FailWrites(t, syscall.ENOSPC)
	if err := s.Put([]byte("lost"), []byte("written after the disk filled")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on a full disk returned %v, want ENOSPC", err)
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Files != 1 {
		t.Errorf("stats = %+v, want 1 write error and the 1 earlier entry", st)
	}
	if tmp := tempFiles(t, dir); len(tmp) != 0 {
		t.Errorf("failed write left temp files %v", tmp)
	}
	noop := func([]byte) error { return nil }
	if s.Get([]byte("lost"), noop) {
		t.Error("the failed entry reads as a hit")
	}
	if !s.Get([]byte("kept"), noop) {
		t.Error("the entry stored before the failure is gone")
	}
}

// TestSessionOnFullDisk: a session whose result and trace directories
// both fail every write with ENOSPC returns exactly the results of an
// unstored session, and its in-memory trace tier still shares traces
// across cells.
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
	options := func(storeDir, traceDir string) experiments.Options {
		o := experiments.Default()
		o.TraceLen = 1500
		o.MaxCycles = 2_000_000
		o.Workers = 2
		o.StoreDir, o.TraceDir = storeDir, traceDir
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
	_, want := run(options("", ""))

	blobstore.FailWrites(t, syscall.ENOSPC)
	storeDir, traceDir := t.TempDir(), t.TempDir()
	s, got := run(options(storeDir, traceDir))
	if !reflect.DeepEqual(want, got) {
		t.Errorf("results on a full disk differ from an unstored run:\nwant: %+v\n got: %+v", want.Rows, got.Rows)
	}
	if st := s.StoreStats(); st.WriteErrors == 0 || st.Files != 0 {
		t.Errorf("result store stats = %+v, want write errors and no files", st)
	}
	ts := s.TraceStats()
	if ts.DiskWriteErrors == 0 || ts.DiskFiles != 0 {
		t.Errorf("trace tier stats = %+v, want disk write errors and no files", ts)
	}
	if ts.Generated == 0 || ts.Hits == 0 || ts.Generated != ts.Misses {
		t.Errorf("trace tier stats = %+v, want every identity generated once and later cells served as hits", ts)
	}
	for _, dir := range []string{storeDir, traceDir} {
		if tmp := tempFiles(t, dir); len(tmp) != 0 {
			t.Errorf("failed writes left temp files %v in %s", tmp, dir)
		}
	}
}

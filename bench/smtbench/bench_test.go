package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	list := []span{
		{ID: 1, Start: 0, End: 100},
		// Children overlap each other and one runs past its parent: only
		// the union inside [0, 100] counts, [10, 50] and [90, 100].
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild is covered by its own parent, not the root.
		{ID: 5, Parent: 2, Start: 12, End: 18},
	}
	got := selfTimes(list)
	want := map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpansRecordParentage(t *testing.T) {
	var none *spans
	if id := none.start("x", 0, 1); id != 0 {
		t.Fatalf("a nil recorder returned span %d", id)
	}
	none.end(0)
	s := newSpans()
	root := s.start("request", 0, 7)
	child := s.start("http.wait", root, 7)
	s.end(child)
	open := s.start("unfinished", root, 7)
	s.end(root)
	got := s.snapshot()
	if len(got) != 2 || got[0].Name != "request" || got[1].Parent != root || got[1].Req != 7 {
		t.Fatalf("snapshot = %+v", got)
	}
	for _, sp := range got {
		if sp.ID == open {
			t.Error("an open span was written out")
		}
	}
}

func TestGenSpecIsPureAndStratified(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		seen := map[uint64]bool{}
		uses := map[string]int{}
		for i := 0; i < 20; i++ {
			a, _ := json.Marshal(genSpec(seed, i, coldTraceLen))
			b, _ := json.Marshal(genSpec(seed, i, coldTraceLen))
			if !bytes.Equal(a, b) {
				t.Fatalf("genSpec(%d, %d) differs between calls", seed, i)
			}
			sp, err := scenario.Parse(bytes.NewReader(a))
			if err != nil {
				t.Fatalf("genSpec(%d, %d) does not parse: %v", seed, i, err)
			}
			ws, _ := sp.Workloads.Select()
			if cells := len(ws) * len(sp.Axes[0].Points); len(sp.Axes) != 1 || cells != specCells {
				t.Fatalf("genSpec(%d, %d) has %d cells", seed, i, cells)
			}
			if seen[*sp.Base.Seed] {
				t.Fatalf("genSpec(%d, %d) reuses simulation seed %d", seed, i, *sp.Base.Seed)
			}
			seen[*sp.Base.Seed] = true
			for _, w := range ws {
				for _, b := range w.Benchmarks {
					uses[b]++
				}
			}
		}
		for _, b := range specBenches {
			if uses[b] != 8 {
				t.Errorf("seed %d: benchmark %s used %d times in 20 specs, want 8", seed, b, uses[b])
			}
		}
	}
	a, _ := json.Marshal(genSpec(1, 3, coldTraceLen))
	b, _ := json.Marshal(genSpec(2, 3, coldTraceLen))
	if bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 generate the same spec")
	}
}

// Every kind of bad reply counts against failed: a 500, an {"error"}
// line, a short stream, and a replay whose bytes differ from the
// reference.
func TestFailedCountsEveryBadReply(t *testing.T) {
	good := []byte(strings.Repeat("{\"workload\":\"A/art+mcf\"}\n", specCells))
	errLine := append(append([]byte{}, good[:len(good)/2]...), []byte("{\"error\":\"boom\"}\n")...)
	diverged := bytes.Replace(good, []byte("art"), []byte("gcc"), 1)
	replies := []reply{
		{status: http.StatusOK, body: good},
		{status: http.StatusInternalServerError, body: []byte(`{"error":"x"}`)},
		{status: http.StatusOK, body: errLine},
		{status: http.StatusOK, body: good[:len(good)/2]},
		{status: http.StatusOK, body: diverged},
		{err: http.ErrHandlerTimeout},
	}
	var results []served
	for _, r := range replies {
		results = append(results, served{spec: 0, format: "ndjson", basic: checkReply(r, "ndjson"), sum: sha256.Sum256(r.body)})
	}
	p := &phase{}
	judge(p, results, map[int]map[string][]byte{0: {"ndjson": good}})
	if p.attempted != len(replies) || p.failed != len(replies)-1 {
		t.Errorf("attempted %d failed %d, want %d and %d", p.attempted, p.failed, len(replies), len(replies)-1)
	}
	if err := checkReply(reply{status: http.StatusOK, body: []byte("x,y\n")}, "csv"); err != nil {
		t.Errorf("a buffered format failed the row check: %v", err)
	}
}

func TestProcParsing(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (smt sim (d)) S 1 4242 4242 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 9 0 12345 0 0\n"
	cpu, err := parseProcStatCPU([]byte(stat))
	if err != nil || cpu != 2*time.Second {
		t.Errorf("parseProcStatCPU = %v, %v; want 2s", cpu, err)
	}
	if _, err := parseProcStatCPU([]byte("4242 (x) S 1")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := "Name:\tsmtsimd\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	if kb, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || kb != 51200 {
		t.Errorf("VmHWM = %d, %v; want 51200", kb, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("a missing status key parsed")
	}
	a, err := parseProcStat([]byte("cpu  100 0 20 790 10 0 0 80 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil || a.total != 1000 || a.idle != 800 || a.steal != 80 {
		t.Fatalf("parseProcStat = %+v, %v", a, err)
	}
	// 1000 ticks pass, 500 of them idle; 250 of the other 500 were stolen.
	b := cpuTimes{total: 2000, idle: 1300, steal: 330}
	if got := stolenShare(a, b); got != 0.5 {
		t.Errorf("stolenShare = %v, want 0.5", got)
	}
}

func TestReduceTopSumsFilesIntoLayers(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := reduceTop(string(data), "/work/repro", "/toolchain/go")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, name := range shareNames {
		total += shares[name]
	}
	if total < 99.999 || total > 100.001 {
		t.Errorf("shares sum to %v%%", total)
	}
	// issue.go appears on three rows of the sample (120ms + 40ms + 0 flat
	// of 400ms), runtime files on two (30ms + 10ms).
	for name, want := range map[string]float64{"pipeline.issue": 40, "runtime": 10, "mem": 10, "net": 5, "other": 2.5} {
		if got := shares[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("cpu_share.%s = %v, want %v", name, got, want)
		}
	}
	if _, err := reduceTop("no table here\n", "/work/repro", "/toolchain/go"); err == nil {
		t.Error("output without a table reduced")
	}
	// A profile without samples has the table header and no rows.
	empty := "Showing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n"
	shares, err = reduceTop(empty, "/work/repro", "/toolchain/go")
	if err != nil || shares["runtime"] != 0 || len(shares) != len(shareNames) {
		t.Errorf("empty profile: %v, %v", shares, err)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this command
// reports.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	var layers []metricDef
	for _, m := range perLayer {
		layers = append(layers, metricDef{m.name, m.unit})
	}
	check("per_layer", bf.PerLayer, layers)
}

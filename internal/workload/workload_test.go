package workload

import (
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracestore"
)

func TestTable2Counts(t *testing.T) {
	// The paper's Table 2: 10 workloads per 2-thread group, 8 per 4-thread
	// group, 54 in total.
	want := map[string]int{"ILP2": 10, "MIX2": 10, "MEM2": 10, "ILP4": 8, "MIX4": 8, "MEM4": 8}
	total := 0
	for g, n := range want {
		got := len(MustByGroup(g))
		if got != n {
			t.Errorf("%s has %d workloads, want %d", g, got, n)
		}
		total += got
	}
	if len(All()) != total || total != 54 {
		t.Fatalf("total workloads = %d, want 54", len(All()))
	}
}

func TestThreadCountsMatchGroups(t *testing.T) {
	for _, w := range All() {
		want := 2
		if w.Group[len(w.Group)-1] == '4' {
			want = 4
		}
		if w.Threads() != want {
			t.Errorf("%s has %d threads, want %d", w.Name(), w.Threads(), want)
		}
	}
}

func TestAllBenchmarksHaveProfiles(t *testing.T) {
	for _, b := range Benchmarks() {
		if _, err := trace.Find(b); err != nil {
			t.Errorf("benchmark %q in Table 2 has no profile: %v", b, err)
		}
	}
}

func TestMEMGroupsAreMemoryBound(t *testing.T) {
	// Every benchmark in a MEM workload must be MEM-classified; ILP groups
	// must be pure ILP. (MIX groups mix by construction.)
	for _, g := range []string{"MEM2", "MEM4"} {
		for _, w := range MustByGroup(g) {
			for _, b := range w.Benchmarks {
				if trace.MustLookup(b).Class != trace.ClassMEM {
					t.Errorf("%s contains non-MEM benchmark %s", w.Name(), b)
				}
			}
		}
	}
	for _, g := range []string{"ILP2", "ILP4"} {
		for _, w := range MustByGroup(g) {
			for _, b := range w.Benchmarks {
				if trace.MustLookup(b).Class != trace.ClassILP {
					t.Errorf("%s contains non-ILP benchmark %s", w.Name(), b)
				}
			}
		}
	}
}

func TestMIXGroupsActuallyMix(t *testing.T) {
	for _, g := range []string{"MIX2", "MIX4"} {
		for _, w := range MustByGroup(g) {
			mem, ilp := 0, 0
			for _, b := range w.Benchmarks {
				if trace.MustLookup(b).Class == trace.ClassMEM {
					mem++
				} else {
					ilp++
				}
			}
			if mem == 0 || ilp == 0 {
				t.Errorf("%s does not mix classes (mem=%d ilp=%d)", w.Name(), mem, ilp)
			}
		}
	}
}

func TestTracesDisjointAddressSpaces(t *testing.T) {
	w := MustByGroup("MEM2")[1] // art+mcf
	traces := w.MustTraces(5000, 1)
	if len(traces) != 2 {
		t.Fatalf("got %d traces", len(traces))
	}
	// Collect address ranges; they must not overlap.
	var ranges [][2]uint64
	for _, tr := range traces {
		lo, hi := ^uint64(0), uint64(0)
		for i := 0; i < tr.Len(); i++ {
			in := tr.At(uint64(i))
			if in.Op.IsMem() {
				if in.Addr < lo {
					lo = in.Addr
				}
				if in.Addr > hi {
					hi = in.Addr
				}
			}
		}
		ranges = append(ranges, [2]uint64{lo, hi})
	}
	if ranges[0][1] >= ranges[1][0] && ranges[1][1] >= ranges[0][0] {
		t.Fatalf("data ranges overlap: %x vs %x", ranges[0], ranges[1])
	}
}

func TestTracesDeterministic(t *testing.T) {
	w := MustByGroup("MIX2")[0]
	a := w.MustTraces(2000, 7)
	b := w.MustTraces(2000, 7)
	for i := range a {
		for j := uint64(0); j < 2000; j++ {
			if *a[i].At(j) != *b[i].At(j) {
				t.Fatalf("trace %d diverges at %d", i, j)
			}
		}
	}
}

func TestDuplicateBenchmarksDecorrelated(t *testing.T) {
	// MEM4 "swim,applu,art,mcf" has no duplicates; craft a workload with
	// one to verify copies decorrelate.
	w := Workload{Group: "MEM2", Benchmarks: []string{"art", "art"}}
	traces := w.MustTraces(2000, 3)
	same := 0
	for j := uint64(0); j < 2000; j++ {
		a, b := traces[0].At(j), traces[1].At(j)
		if a.Op == b.Op && a.Addr-0 == b.Addr-0x4000_0000+0 { // same offset in own region
			same++
		}
	}
	if same > 1500 {
		t.Fatalf("duplicate benchmark copies correlate: %d/2000 identical", same)
	}
}

func TestByGroupRejectsUnknown(t *testing.T) {
	if _, err := ByGroup("NOPE"); err == nil {
		t.Fatal("unknown group accepted")
	} else if !strings.Contains(err.Error(), "MEM4") {
		t.Fatalf("error does not list valid groups: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		w  Workload
		ok bool
	}{
		{Workload{Group: "MEM2", Benchmarks: []string{"art", "mcf"}}, true},
		{Workload{Group: "X", Benchmarks: []string{"art", "nonesuch"}}, false},
		{Workload{Group: "X"}, false},
		{Workload{Group: "X", Benchmarks: make([]string, MaxThreads+1)}, false},
	}
	for _, c := range cases {
		err := c.w.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.w, err, c.ok)
		}
	}
	if err := (Workload{Group: "X", Benchmarks: []string{"art", "nonesuch"}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "mcf") {
		t.Errorf("unknown-benchmark error does not list valid names: %v", err)
	}
}

func TestTracesSurfacesUnknownBenchmark(t *testing.T) {
	w := Workload{Group: "X", Benchmarks: []string{"nonesuch"}}
	if _, err := w.TracesVia(nil, 100, 1); err == nil {
		t.Fatal("unknown benchmark accepted by TracesVia")
	}
}

func TestParse(t *testing.T) {
	w, err := Parse("art+mcf+swim+twolf")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "adhoc/art+mcf+swim+twolf" || w.Threads() != 4 {
		t.Fatalf("parsed %q with %d threads", w.Name(), w.Threads())
	}
	w, err = Parse("HOT/art+art")
	if err != nil {
		t.Fatal(err)
	}
	if w.Group != "HOT" || len(w.Benchmarks) != 2 {
		t.Fatalf("parsed group %q, %d benchmarks", w.Group, len(w.Benchmarks))
	}
	for _, bad := range []string{"", "art+nonesuch", "/art", "MEM2/", "art+"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestTracesDedupeAcrossWorkloads asserts the trace-tier contract: two
// different workloads that place the same benchmark at the same context
// index under the same seed receive the *same* trace object, because the
// generation identity (benchmark, length, derived seed, address bases) is
// identical and the shared tier dedupes it.
func TestTracesDedupeAcrossWorkloads(t *testing.T) {
	ts := tracestore.New(0)
	a := Workload{Group: "MEM2", Benchmarks: []string{"art", "mcf"}}
	b := Workload{Group: "MIX2", Benchmarks: []string{"art", "gzip"}}
	ta, err := a.TracesVia(ts, 600, 42)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.TracesVia(ts, 600, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ta[0] != tb[0] {
		t.Fatal("shared (benchmark, context, seed) generated two distinct traces")
	}
	if ta[1] == tb[1] {
		t.Fatal("distinct benchmarks at context 1 shared one trace")
	}
	// 3 distinct identities: art@0 (shared), mcf@1, gzip@1.
	if got := ts.Stats().Generated; got != 3 {
		t.Fatalf("generated %d traces, want 3", got)
	}
}

// TestTracesViaNilUsesDefault pins the routing: TracesVia with a nil
// store serves from the process-wide default tier, so repeated
// materializations of one workload return identical trace objects.
func TestTracesViaNilUsesDefault(t *testing.T) {
	w := Workload{Group: "MEM2", Benchmarks: []string{"art", "mcf"}}
	ta := w.MustTraces(700, 7)
	tb := w.MustTraces(700, 7)
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("context %d regenerated despite the default tier", i)
		}
	}
}

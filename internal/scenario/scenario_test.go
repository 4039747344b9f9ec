package scenario_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func ptr[T any](v T) *T { return &v }

func TestDeltaApply(t *testing.T) {
	cfg := core.DefaultConfig()
	d := scenario.Delta{
		Policy:   ptr("RaT"),
		ROBSize:  ptr(256),
		Regs:     ptr(128),
		FPRegs:   ptr(192), // specific override on top of the compound one
		L2Lat:    ptr(uint64(35)),
		L2KB:     ptr(2048),
		TraceLen: ptr(5_000),
		Seed:     ptr(uint64(9)),
	}
	if err := d.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Policy != core.PolicyRaT {
		t.Errorf("policy = %q", cfg.Policy)
	}
	if cfg.Pipeline.ROBSize != 256 || cfg.Pipeline.IntRegs != 128 || cfg.Pipeline.FPRegs != 192 {
		t.Errorf("geometry = ROB %d, regs %d/%d", cfg.Pipeline.ROBSize, cfg.Pipeline.IntRegs, cfg.Pipeline.FPRegs)
	}
	if cfg.Pipeline.Mem.L2.Latency != 35 || cfg.Pipeline.Mem.L2.SizeBytes != 2048<<10 {
		t.Errorf("L2 = %d cyc, %d bytes", cfg.Pipeline.Mem.L2.Latency, cfg.Pipeline.Mem.L2.SizeBytes)
	}
	if cfg.TraceLen != 5_000 || cfg.Seed != 9 {
		t.Errorf("measurement = len %d, seed %d", cfg.TraceLen, cfg.Seed)
	}
	// Untouched knobs keep their Table 1 values.
	if cfg.Pipeline.Width != 8 || cfg.Pipeline.Mem.MemLatency != 400 {
		t.Errorf("unrelated knobs moved: width %d, memlat %d", cfg.Pipeline.Width, cfg.Pipeline.Mem.MemLatency)
	}
	if err := (scenario.Delta{Policy: ptr("bogus")}).Apply(&cfg); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestDeltaApplyRejectsUnrepresentableCacheSizes: a negative KB count
// would wrap to an enormous byte size, and a count of 2^53 KB or more
// does not fit 63 bits of bytes (from 2^54 KB it wraps to a small size);
// both are errors that name the knob.
func TestDeltaApplyRejectsUnrepresentableCacheSizes(t *testing.T) {
	for _, kb := range []int{-1, math.MinInt, math.MaxInt64>>10 + 1, math.MaxInt} {
		for name, d := range map[string]scenario.Delta{
			"il1KB": {IL1KB: &kb}, "dl1KB": {DL1KB: &kb}, "l2KB": {L2KB: &kb},
		} {
			cfg := core.DefaultConfig()
			if err := d.Apply(&cfg); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s %d: err = %v, want one naming %s", name, kb, err, name)
			}
		}
	}
}

func TestDeltaLabel(t *testing.T) {
	if got := (scenario.Delta{}).Label(); got != "base" {
		t.Errorf("empty delta label = %q", got)
	}
	d := scenario.Delta{Policy: ptr("RaT"), ROBSize: ptr(128)}
	if got := d.Label(); got != "policy=RaT,robSize=128" {
		t.Errorf("label = %q", got)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name":"x","axes":[{"name":"a","points":[{"delta":{"robSzie":128}}]}]}`,
		"missing name":    `{"axes":[]}`,
		"unknown metric":  `{"name":"x","metrics":["bogus"]}`,
		"unknown group":   `{"name":"x","workloads":{"groups":["NOPE"]}}`,
		"bad adhoc":       `{"name":"x","workloads":{"adhoc":["art+nonesuch"]}}`,
		"axis no points":  `{"name":"x","axes":[{"name":"a"}]}`,
		"duplicate axis":  `{"name":"x","axes":[{"name":"a","points":[{"delta":{}}]},{"name":"a","points":[{"delta":{}}]}]}`,
		"bad format":      `{"name":"x","format":"xml"}`,
		"duplicate point": `{"name":"x","axes":[{"name":"a","points":[{"delta":{"robSize":1}},{"delta":{"robSize":1}}]}]}`,
		"trailing spec":   `{"name":"x"} {"name":"y"}`,
		"trailing junk":   `{"name":"x"} garbage`,
		// Sizes no worker can allocate: a negative L2 that wraps to 2^64
		// bytes, a 1 PiB L2, and a ROB whose ring size would overflow.
		"negative l2KB":  `{"name":"x","base":{"l2KB":-1,"l2Ways":18014398509481983}}`,
		"1 PiB L2":       `{"name":"x","base":{"l2KB":1099511627776,"l2Ways":2}}`,
		"robSize 2^62+1": `{"name":"x","axes":[{"name":"a","points":[{"delta":{"robSize":4611686018427387905}}]}]}`,
		// Measurement knobs past their caps: a 2^40-instruction trace no
		// worker can make, and a FAME span of 2^14 x 2^50 = 2^64 that
		// wraps to 0 and ends the window at once.
		"traceLen 2^40":      `{"name":"x","base":{"traceLen":1099511627776}}`,
		"wrapping FAME span": `{"name":"x","base":{"traceLen":16384,"minIterations":1125899906842624}}`,
	}
	for what, doc := range cases {
		if _, err := scenario.Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted: %s", what, doc)
		}
	}
}

// TestDecodeRejectsTrailingData: an input holds exactly one spec. A
// second JSON value or any other non-whitespace after the first is an
// error; trailing whitespace is not.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, doc := range []string{
		`{"name":"x"} {"name":"y"}`,
		`{"name":"x"}{"name":"y"}`,
		`{"name":"x"} garbage`,
		`{"name":"x"}}`,
		`{"name":"x"} 1`,
		`{"name":"x"} "`,
		`{"name":"x"},`,
	} {
		if sp, err := scenario.Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("trailing data accepted, spec %q: %s", sp.Name, doc)
		} else if !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s: error %q does not name the trailing data", doc, err)
		}
	}
	for _, doc := range []string{`{"name":"x"}`, "{\"name\":\"x\"}\n", "\t{\"name\":\"x\"} \r\n\t "} {
		if sp, err := scenario.Decode(strings.NewReader(doc)); err != nil || sp.Name != "x" {
			t.Errorf("%q: spec %+v, err %v; trailing whitespace must be accepted", doc, sp, err)
		}
	}
}

func TestParseValidSpec(t *testing.T) {
	doc := `{
		"name": "rob-sweep",
		"description": "RaT sensitivity to ROB size",
		"workloads": {"groups": ["MEM2"], "perGroup": 2, "adhoc": ["art+mcf+swim+twolf"]},
		"base": {"policy": "RaT"},
		"axes": [{"name": "rob", "points": [
			{"delta": {"robSize": 128}},
			{"delta": {"robSize": 512}}
		]}],
		"metrics": ["throughput", "l2mpki"],
		"format": "json"
	}`
	sp, err := scenario.Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := sp.Workloads.Select()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("selected %d workloads, want 2 MEM2 + 1 adhoc", len(ws))
	}
	if ws[2].Name() != "adhoc/art+mcf+swim+twolf" {
		t.Errorf("adhoc workload = %s", ws[2].Name())
	}
	combos, err := sp.Combos(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 2 {
		t.Fatalf("%d combos, want 2", len(combos))
	}
	for _, c := range combos {
		if c.Config.Policy != core.PolicyRaT {
			t.Errorf("combo %v lost the base policy", c.Labels)
		}
	}
	if combos[0].Fingerprint == combos[1].Fingerprint {
		t.Error("distinct ROB sizes share a fingerprint")
	}
	if combos[0].Labels[0] != "robSize=128" {
		t.Errorf("derived label = %q", combos[0].Labels[0])
	}
}

func TestCombosCrossProduct(t *testing.T) {
	sp := &scenario.Spec{
		Name: "x",
		Axes: []scenario.Axis{
			{Name: "rob", Points: []scenario.Point{
				{Delta: scenario.Delta{ROBSize: ptr(128)}},
				{Delta: scenario.Delta{ROBSize: ptr(256)}},
				{Delta: scenario.Delta{ROBSize: ptr(512)}},
			}},
			{Name: "policy", Points: []scenario.Point{
				{Label: "ICOUNT", Delta: scenario.Delta{Policy: ptr("ICOUNT")}},
				{Label: "RaT", Delta: scenario.Delta{Policy: ptr("RaT")}},
			}},
		},
	}
	combos, err := sp.Combos(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 6 {
		t.Fatalf("%d combos, want 6", len(combos))
	}
	// Leftmost axis slowest-varying: combo 2 is rob=256 × ICOUNT.
	if combos[2].Labels[0] != "robSize=256" || combos[2].Labels[1] != "ICOUNT" {
		t.Errorf("combo 2 labels = %v", combos[2].Labels)
	}
	seen := map[string]bool{}
	for _, c := range combos {
		if seen[c.Fingerprint] {
			t.Errorf("duplicate fingerprint for %v", c.Labels)
		}
		seen[c.Fingerprint] = true
	}

	// An incoherent machine configuration must be an error, not a panic.
	sp.Axes[0].Points[0].Delta.ROBSize = ptr(-1)
	if _, err := sp.Combos(core.DefaultConfig()); err == nil {
		t.Error("negative ROB accepted")
	}
	sp.Axes[0].Points[0].Delta = scenario.Delta{MSHRs: ptr(0), ROBSize: ptr(128)}
	if _, err := sp.Combos(core.DefaultConfig()); err == nil {
		t.Error("zero MSHRs accepted")
	}
}

// TestCombosErrorNamesThePoint: a rejected point is named by its axis
// labels, and the one point of a spec with no axes by "base".
func TestCombosErrorNamesThePoint(t *testing.T) {
	racache := scenario.Delta{Policy: ptr("RaT-racache"), RunaheadCacheEntries: ptr(0)}
	for _, tc := range []struct {
		sp   *scenario.Spec
		want string
	}{
		{&scenario.Spec{Name: "rc", Base: racache},
			"scenario rc: point base: pipeline: runahead cache enabled with 0 entries"},
		{&scenario.Spec{Name: "rc", Axes: []scenario.Axis{
			{Name: "policy", Points: []scenario.Point{{Label: "rc0", Delta: racache}}},
			{Name: "rob", Points: []scenario.Point{{Delta: scenario.Delta{ROBSize: ptr(64)}}}},
		}}, "scenario rc: point rc0/robSize=64: pipeline: runahead cache enabled with 0 entries"},
	} {
		_, err := tc.sp.Combos(core.DefaultConfig())
		if err == nil || err.Error() != tc.want {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
}

// testSpec is a small but real sweep: one non-policy, non-regfile knob
// (ROB size) under RaT on one 2-thread workload.
func testSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:        "rob-sweep-test",
		Description: "ROB sensitivity under RaT",
		Workloads:   scenario.WorkloadSpec{Adhoc: []string{"art+gzip"}},
		Base: scenario.Delta{
			Policy:    ptr("RaT"),
			TraceLen:  ptr(3_000),
			MaxCycles: ptr(uint64(3_000_000)),
		},
		Axes: []scenario.Axis{{Name: "rob", Points: []scenario.Point{
			{Delta: scenario.Delta{ROBSize: ptr(64)}},
			{Delta: scenario.Delta{ROBSize: ptr(512)}},
		}}},
		Metrics: []string{"throughput", "fairness", "cycles"},
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	o := experiments.Quick()
	s, err := experiments.NewSession(o)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.RunScenarioCtx(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (1 workload × 2 ROB sizes)", len(rs.Rows))
	}
	for _, row := range rs.Rows {
		if row.Workload != "adhoc/art+gzip" {
			t.Errorf("row workload = %s", row.Workload)
		}
		for mi, name := range rs.Metrics {
			if row.Values[mi] <= 0 {
				t.Errorf("%s/%v: metric %s not positive: %v", row.Workload, row.Labels, name, row.Values[mi])
			}
		}
	}
	// A 64-entry ROB cannot be faster than a 512-entry one here; assert
	// the sweep actually reached the knob (the whole point of the engine).
	if rs.Value(0, 0, 0) >= rs.Value(0, 1, 0) {
		t.Errorf("ROB sweep had no effect: throughput %v (64) vs %v (512)",
			rs.Value(0, 0, 0), rs.Value(0, 1, 0))
	}
}

func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	run := func(workers int) *scenario.ResultSet {
		o := experiments.Quick()
		o.Workers = workers
		s, err := experiments.NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.RunScenarioCtx(context.Background(), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := run(1), run(4)
	for i := range a.Rows {
		for mi := range a.Rows[i].Values {
			if a.Rows[i].Values[mi] != b.Rows[i].Values[mi] {
				t.Errorf("row %d metric %d diverges across worker counts: %v vs %v",
					i, mi, a.Rows[i].Values[mi], b.Rows[i].Values[mi])
			}
		}
	}
}

func TestResultSetEmitters(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run")
	}
	s, err := experiments.NewSession(experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.RunScenarioCtx(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}

	// JSON: valid, row-per-cell, metric values surviving exactly.
	var buf bytes.Buffer
	if err := rs.Emit(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string           `json:"title"`
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.Title != "rob-sweep-test" || len(doc.Rows) != 2 {
		t.Fatalf("JSON shape: title %q, %d rows", doc.Title, len(doc.Rows))
	}
	if got := doc.Rows[0]["throughput"].(float64); got != rs.Rows[0].Values[0] {
		t.Errorf("JSON throughput %v != %v", got, rs.Rows[0].Values[0])
	}
	if doc.Rows[1]["rob"].(string) != "robSize=512" {
		t.Errorf("JSON axis label = %v", doc.Rows[1]["rob"])
	}

	// CSV: header + rows, float cells round-tripping exactly.
	buf.Reset()
	if err := rs.Emit(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("CSV has %d records, want header + 2 rows", len(recs))
	}
	thruCol := -1
	for i, c := range recs[0] {
		if c == "throughput" {
			thruCol = i
		}
	}
	if thruCol < 0 {
		t.Fatalf("CSV header missing throughput: %v", recs[0])
	}
	got, err := strconv.ParseFloat(recs[1][thruCol], 64)
	if err != nil || got != rs.Rows[0].Values[0] {
		t.Errorf("CSV throughput %q -> %v, want exactly %v", recs[1][thruCol], got, rs.Rows[0].Values[0])
	}

	// Table: aligned text with every column name.
	table := rs.String()
	for _, want := range []string{"workload", "rob", "throughput", "fairness", "config"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if err := rs.Emit(&bytes.Buffer{}, "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestMetricNames(t *testing.T) {
	names := scenario.MetricNames()
	want := map[string]bool{"throughput": true, "fairness": true, "ed2": true, "l2mpki": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("MetricNames missing %v (got %v)", want, names)
	}
}

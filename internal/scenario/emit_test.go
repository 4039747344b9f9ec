package scenario

import (
	"bytes"
	"encoding/csv"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the emitter golden files")

// goldenResultSet is the fixed result set the emitter goldens render: two
// axes, three metrics, float values whose formatting switches notation
// or sign, one truncated row, and labels that CSV must quote, JSON must
// escape and the table measures in bytes.
func goldenResultSet() *ResultSet {
	return &ResultSet{
		Name:        "golden-sweep",
		Description: "RaT against ROB size, <escaped> & quoted",
		Axes:        []string{"policy", "rob"},
		Metrics:     []string{"throughput", "l2mpki", "cycles"},
		Rows: []Row{
			{Workload: "MEM2/art+mcf", Labels: []string{"policy=RaT", "robSize=128"}, Fingerprint: "0123456789abcdef", Values: []float64{1.0 / 3, 1e-7, 62208}},
			{Workload: "MEM2/art,mcf", Labels: []string{`policy="ICOUNT"`, "robSize<512"}, Fingerprint: "fedcba9876543210", Values: []float64{1e21, math.Copysign(0, -1), 23040}, Truncated: true},
			{Workload: "MIX2/gzip+mcf", Labels: []string{"politique=héllo", "日本語"}, Fingerprint: "0000000000000000", Values: []float64{0.6180339887498949, 12.5, 0}},
		},
	}
}

// TestEmitGolden pins every output format's bytes on goldenResultSet.
// Run with -update to regenerate after an intentional output change.
func TestEmitGolden(t *testing.T) {
	rs := goldenResultSet()
	for _, format := range []string{"table", "json", "csv", "ndjson"} {
		t.Run(format, func(t *testing.T) {
			var buf bytes.Buffer
			if err := rs.Emit(&buf, format); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "emit-"+format+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", format, buf.Bytes(), want)
			}
		})
	}
}

// TestResultSetTableUsesFigureFloatFormat: table cells print metric
// values the way the figures do, with three decimals.
func TestResultSetTableUsesFigureFloatFormat(t *testing.T) {
	rs := &ResultSet{Name: "t", Metrics: []string{"ipc"}, Rows: []Row{{Workload: "MEM2", Values: []float64{0.123456}}}}
	if s := rs.String(); !strings.Contains(s, "0.123") || strings.Contains(s, "0.123456") {
		t.Fatalf("table cell not figure-formatted:\n%s", s)
	}
}

// TestResultSetCSVRoundTrip: string cells with commas and quotes survive
// encoding, values parse back to the exact float64, and the truncation
// flag reads as a bool.
func TestResultSetCSVRoundTrip(t *testing.T) {
	rs := &ResultSet{
		Name:    "sweep",
		Metrics: []string{"thru", "cycles"},
		Rows: []Row{
			{Workload: "MEM2/art,mcf", Fingerprint: "a", Values: []float64{0.6180339887498949, 123456789}},
			{Workload: `quoted "name"`, Fingerprint: "b", Values: []float64{1e-20, 0}, Truncated: true},
		},
	}
	var buf bytes.Buffer
	if err := rs.Emit(&buf, "csv"); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV invalid: %v\n%s", err, buf.String())
	}
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if got := recs[0]; strings.Join(got, "|") != "workload|thru|cycles|truncated|config" {
		t.Fatalf("header = %v", got)
	}
	if recs[1][0] != "MEM2/art,mcf" || recs[2][0] != `quoted "name"` {
		t.Errorf("string cells mangled: %q, %q", recs[1][0], recs[2][0])
	}
	for i, row := range rs.Rows {
		for j, want := range row.Values {
			got, err := strconv.ParseFloat(recs[i+1][1+j], 64)
			if err != nil || got != want {
				t.Errorf("row %d value %q -> %v, want exactly %v", i, recs[i+1][1+j], got, want)
			}
		}
	}
	if recs[1][3] != "false" || recs[2][3] != "true" {
		t.Errorf("truncated cells: %v", recs[1:])
	}
}

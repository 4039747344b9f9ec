package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestTableGoldenAlignment locks the exact rendering of a table mixing
// wide cells, empty cells, and a short row — padding, the two-space
// gutter, and the rule length are all load-bearing for the figure
// goldens, so they are asserted byte for byte here.
func TestTableGoldenAlignment(t *testing.T) {
	tb := NewTable("golden", "name", "wide-column-header", "v")
	tb.AddRow("a-very-wide-cell-value", "x", "1")
	tb.AddRow("b", "", "2") // explicit empty middle cell
	tb.AddRow("c")          // short row: padded with empty cells
	got := tb.String()
	want := "" +
		"golden\n" +
		"name                    wide-column-header  v\n" +
		"----------------------------------------------\n" +
		"a-very-wide-cell-value  x                   1\n" +
		"b                                           2\n" +
		"c                                            \n"
	if got != want {
		t.Fatalf("table rendering diverged:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestDatasetTableUsesFigureFloatFormat(t *testing.T) {
	d := NewDataset("t", "w", "ipc")
	d.AddRow("MEM2", 0.123456)
	if s := d.String(); !strings.Contains(s, "0.123") || strings.Contains(s, "0.123456") {
		t.Fatalf("table cell not figure-formatted:\n%s", s)
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	d := NewDataset("sweep", "workload", "label", "thru", "n", "trunc")
	d.Description = "desc"
	d.AddRow("MEM2/art+mcf", "robSize=128", 0.6180339887498949, 42, false)
	d.AddRow("MEM2/art+mcf", "robSize=512", 1.0/3.0, uint64(7), true)

	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title       string           `json:"title"`
		Description string           `json:"description"`
		Columns     []string         `json:"columns"`
		Rows        []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON invalid: %v\n%s", err, buf.String())
	}
	if doc.Title != "sweep" || doc.Description != "desc" || len(doc.Columns) != 5 {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Rows) != 2 {
		t.Fatalf("%d rows", len(doc.Rows))
	}
	// Values parse back to the exact floats/bools that went in.
	if v := doc.Rows[0]["thru"].(float64); v != 0.6180339887498949 {
		t.Errorf("thru round-trip: %v", v)
	}
	if v := doc.Rows[1]["thru"].(float64); v != 1.0/3.0 {
		t.Errorf("thru round-trip: %v", v)
	}
	if v := doc.Rows[1]["trunc"].(bool); v != true {
		t.Errorf("trunc round-trip: %v", v)
	}
	if v := doc.Rows[0]["n"].(float64); v != 42 {
		t.Errorf("n round-trip: %v", v)
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	d := NewDataset("sweep", "workload", "thru", "cycles", "trunc")
	d.AddRow("MEM2/art,mcf", 0.6180339887498949, uint64(123456789), false)
	d.AddRow(`quoted "name"`, 1e-20, 0, true)

	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV invalid: %v\n%s", err, buf.String())
	}
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	if got := recs[0]; strings.Join(got, "|") != "workload|thru|cycles|trunc" {
		t.Fatalf("header = %v", got)
	}
	// Cells with commas and quotes survive encoding.
	if recs[1][0] != "MEM2/art,mcf" || recs[2][0] != `quoted "name"` {
		t.Errorf("string cells mangled: %q, %q", recs[1][0], recs[2][0])
	}
	// Floats round-trip to the exact bit pattern.
	for i, want := range []float64{0.6180339887498949, 1e-20} {
		got, err := strconv.ParseFloat(recs[i+1][1], 64)
		if err != nil || got != want {
			t.Errorf("row %d float %q -> %v, want exactly %v", i, recs[i+1][1], got, want)
		}
	}
	if recs[1][2] != "123456789" || recs[2][3] != "true" {
		t.Errorf("int/bool cells: %v", recs[1:])
	}
}

func TestDatasetPadding(t *testing.T) {
	d := NewDataset("t", "a", "b")
	d.AddRow("only") // short row pads with nil -> empty
	if len(d.rows) != 1 {
		t.Fatalf("rows = %d", len(d.rows))
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, _ := csv.NewReader(&buf).ReadAll()
	if recs[1][1] != "" {
		t.Fatalf("padded cell = %q", recs[1][1])
	}
}

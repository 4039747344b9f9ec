package scenario

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// referenceObject is the row as the map the reference encodings
// marshal: a key repeated across the columns keeps its last value.
func referenceObject(axes, metrics []string, row Row) map[string]any {
	obj := make(map[string]any, len(axes)+len(metrics)+3)
	obj["workload"] = row.Workload
	for i, a := range axes {
		obj[a] = row.Labels[i]
	}
	for i, m := range metrics {
		obj[m] = row.Values[i]
	}
	obj["truncated"] = row.Truncated
	obj["config"] = row.Fingerprint
	return obj
}

// referenceRow is the encoding the RowEncoder must reproduce byte for
// byte: the row as a map[string]any through json.Encoder.
func referenceRow(axes, metrics []string, row Row) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(referenceObject(axes, metrics, row))
	return buf.Bytes(), err
}

// referenceJSON is the document WriteJSON must reproduce byte for byte:
// the header fields and the rows as maps through a json.Encoder with
// SetIndent("", "  ").
func referenceJSON(w io.Writer, rs *ResultSet) error {
	doc := struct {
		Title       string           `json:"title,omitempty"`
		Description string           `json:"description,omitempty"`
		Columns     []string         `json:"columns"`
		Rows        []map[string]any `json:"rows"`
	}{
		Title:       rs.Name,
		Description: rs.Description,
		Columns:     append(append(append([]string{"workload"}, rs.Axes...), rs.Metrics...), "truncated", "config"),
		Rows:        make([]map[string]any, 0, len(rs.Rows)),
	}
	for _, row := range rs.Rows {
		doc.Rows = append(doc.Rows, referenceObject(rs.Axes, rs.Metrics, row))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// checkRowEncoder compares one row's encoding with the reference: the
// same bytes, or the same error with nothing written.
func checkRowEncoder(t *testing.T, axes, metrics []string, row Row) {
	t.Helper()
	want, wantErr := referenceRow(axes, metrics, row)
	var got bytes.Buffer
	err := newRowEncoder(&got, axes, metrics).Encode(row)
	if wantErr != nil {
		var uve *json.UnsupportedValueError
		if err == nil || !errors.As(err, &uve) || err.Error() != wantErr.Error() {
			t.Fatalf("row %+v: err = %v, want %v", row, err, wantErr)
		}
		if got.Len() != 0 {
			t.Fatalf("row %+v: failed encode wrote %q", row, got.Bytes())
		}
		return
	}
	if err != nil {
		t.Fatalf("row %+v: unexpected error %v", row, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("row %+v:\ngot  %q\nwant %q", row, got.Bytes(), want)
	}
}

// TestRowEncoderMatchesEncodingJSON pins the append encoder to the
// encoding/json map encoding it replaced, over the corners where the two
// could part: string escaping, float notation switches and trims,
// repeated keys, and unsupported values.
func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	strs := []string{
		"", "MEM2/art+mcf", `q"uote`, `back\slash`, "<script>&amp;", "a\tb\nc\r",
		"\x00\x01\x1f\x7f", "line\u2028sep\u2029", "héllo", "日本語",
		"\xff\xfe", "ok\xc3", "base", "policy=RaT,robSize=128",
	}
	for _, s := range strs {
		axes := []string{s + "-axis", "rob"}
		metrics := []string{"throughput", s}
		checkRowEncoder(t, axes, metrics, Row{
			Workload:    s,
			Labels:      []string{s, "64"},
			Fingerprint: s,
			Values:      []float64{1.25, 2},
			Truncated:   len(s)%2 == 0,
		})
	}

	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1e-9, 1.5e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1e300,
		5e-324, math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
		math.MaxFloat64, -math.MaxFloat64,
	}
	metrics := []string{"throughput"}
	for _, f := range floats {
		checkRowEncoder(t, nil, metrics, Row{Workload: "w", Fingerprint: "c", Values: []float64{f}})
	}

	// A metric listed twice renders once, holding the last value.
	checkRowEncoder(t, []string{"x"}, []string{"throughput", "l2mpki", "throughput"}, Row{
		Workload: "w", Labels: []string{"p"}, Fingerprint: "c", Values: []float64{1, 2, 3},
	})

	// Unsupported values fail with encoding/json's error and write
	// nothing, whichever field holds them.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkRowEncoder(t, nil, []string{"throughput", "cycles"}, Row{
			Workload: "w", Fingerprint: "c", Values: []float64{1, bad},
		})
		checkRowEncoder(t, nil, []string{"throughput", "cycles"}, Row{
			Workload: "w", Fingerprint: "c", Values: []float64{bad, math.Inf(1)},
		})
	}
}

// TestRowEncoderReusesBuffer: consecutive rows through one encoder, and
// a whole result set through WriteNDJSON, equal the reference lines.
func TestRowEncoderReusesBuffer(t *testing.T) {
	sp := &Spec{Name: "x", Axes: []Axis{{Name: "policy"}}, Metrics: []string{"fairness", "ed2"}}
	rs := &ResultSet{Axes: sp.AxisNames(), Metrics: sp.metrics()}
	var want bytes.Buffer
	for i, label := range []string{"ICOUNT", "a much longer label than the first <&>", "RaT"} {
		row := Row{Workload: "MEM2/art+mcf", Labels: []string{label}, Fingerprint: "f", Values: []float64{float64(i) / 7, 1e-8 * float64(i)}}
		rs.Rows = append(rs.Rows, row)
		line, err := referenceRow(rs.Axes, rs.Metrics, row)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
	}
	var streamed bytes.Buffer
	enc := NewRowEncoder(&streamed, sp)
	for _, row := range rs.Rows {
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	var buffered bytes.Buffer
	if err := rs.WriteNDJSON(&buffered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), want.Bytes()) || !bytes.Equal(buffered.Bytes(), want.Bytes()) {
		t.Fatalf("NDJSON differs from the reference:\nstreamed %q\nbuffered %q\nwant     %q",
			streamed.Bytes(), buffered.Bytes(), want.Bytes())
	}
}

// FuzzRowEncoder drives the reference comparison from fuzz bytes: any
// names (colliding with the fixed columns or each other), any strings
// and any float bit patterns.
func FuzzRowEncoder(f *testing.F) {
	f.Add("MEM2/art+mcf", "RaT", "policy", "fairness", uint64(0x3ff8000000000000), uint64(0), true, "cfg")
	f.Add("w\u2028<&>", "\xff", "workload", "truncated", math.Float64bits(1e-7), math.Float64bits(1e21), false, `"`)
	f.Add("", "", "config", "config", math.Float64bits(math.NaN()), math.Float64bits(-0.0), false, "")
	f.Add("a", "b", "x", "x", math.Float64bits(5e-324), math.Float64bits(math.Inf(-1)), true, "c")
	f.Fuzz(func(t *testing.T, workload, label, axis, metric string, v1, v2 uint64, truncated bool, fp string) {
		axes := []string{axis, "rob"}
		metrics := []string{metric, "throughput", metric}
		checkRowEncoder(t, axes, metrics, Row{
			Workload:    workload,
			Labels:      []string{label, workload},
			Fingerprint: fp,
			Values:      []float64{math.Float64frombits(v1), math.Float64frombits(v2), math.Float64frombits(v2 ^ v1)},
			Truncated:   truncated,
		})
	})
}

// checkWriteJSON compares rs.WriteJSON with its map-based reference,
// referenceJSON: the same bytes, or the same error with nothing written
// by either.
func checkWriteJSON(t *testing.T, rs *ResultSet) {
	t.Helper()
	var want, got bytes.Buffer
	wantErr := referenceJSON(&want, rs)
	err := rs.WriteJSON(&got)
	if wantErr != nil {
		var uve *json.UnsupportedValueError
		if err == nil || !errors.As(err, &uve) || err.Error() != wantErr.Error() {
			t.Fatalf("err = %v, want %v", err, wantErr)
		}
		if got.Len() != 0 || want.Len() != 0 {
			t.Fatalf("failed encode wrote %q (reference %q)", got.Bytes(), want.Bytes())
		}
		return
	}
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("JSON document differs from the reference:\ngot  %q\nwant %q", got.Bytes(), want.Bytes())
	}
}

// checkWriteCSV parses rs.WriteCSV's output back: a header of the
// columns, then one record per row holding the row's strings, its
// truncation flag, and values that parse back to the same float64 bits
// (a NaN to a NaN). encoding/csv reads a "\r\n" inside a quoted field
// back as "\n", so the strings are compared after that one rewrite.
func checkWriteCSV(t *testing.T, rs *ResultSet) {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%q", err, buf.Bytes())
	}
	read := func(strs []string) []string {
		for i, s := range strs {
			strs[i] = strings.ReplaceAll(s, "\r\n", "\n")
		}
		return strs
	}
	if len(recs) != len(rs.Rows)+1 {
		t.Fatalf("%d CSV records, want a header and %d rows:\n%q", len(recs), len(rs.Rows), buf.Bytes())
	}
	if cols := read(rs.columns()); !slices.Equal(recs[0], cols) {
		t.Fatalf("header = %q, want %q", recs[0], cols)
	}
	for ri, row := range rs.Rows {
		rec := recs[ri+1]
		n := 1 + len(row.Labels)
		got := append(rec[:n:n], rec[n+len(row.Values):]...)
		want := append([]string{row.Workload}, row.Labels...)
		want = read(append(want, strconv.FormatBool(row.Truncated), row.Fingerprint))
		if !slices.Equal(got, want) {
			t.Fatalf("row %d strings = %q, want %q", ri, got, want)
		}
		for i, v := range row.Values {
			f, err := strconv.ParseFloat(rec[n+i], 64)
			if err != nil || math.Float64bits(f) != math.Float64bits(v) && !(math.IsNaN(f) && math.IsNaN(v)) {
				t.Fatalf("row %d value %q reads back as %v (%v), want %v", ri, rec[n+i], f, err, v)
			}
		}
	}
}

// jsonResultSet builds a result set of n rows over the given columns,
// deriving every row's strings and values from the arguments.
func jsonResultSet(name, desc string, axes, metrics []string, label string, v1, v2 uint64, truncated bool, n int) *ResultSet {
	rs := &ResultSet{Name: name, Description: desc, Axes: axes, Metrics: metrics}
	for i := 0; i < n; i++ {
		row := Row{Workload: label + name, Fingerprint: desc + label, Truncated: truncated != (i%2 == 1)}
		for j := range axes {
			row.Labels = append(row.Labels, label+strings.Repeat("<", j+i))
		}
		for j := range metrics {
			bits := v1
			if (i+j)%2 == 1 {
				bits = v2 ^ uint64(i)
			}
			row.Values = append(row.Values, math.Float64frombits(bits))
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs
}

// TestWriteJSONMatchesDataset pins the appended JSON document to
// referenceJSON, the map-based encoding it replaced (report.Dataset's
// once): empty and absent header fields, empty row sets, names colliding
// with the fixed columns or each other, escaped and non-ASCII strings,
// and unsupported values.
func TestWriteJSONMatchesDataset(t *testing.T) {
	one := math.Float64bits(1.25)
	for _, tc := range []struct {
		name, desc    string
		axes, metrics []string
		label         string
		v1, v2        uint64
		rows          int
	}{
		{"rob-sweep", "RaT vs ROB", []string{"rob"}, []string{"throughput", "l2mpki"}, "MEM2/art+mcf", one, math.Float64bits(1e-7), 3},
		{"", "", nil, []string{"throughput"}, "w", one, one, 0},
		{"", "only a description", nil, nil, "w", one, one, 2},
		{"<&>", " \xff", []string{"workload", "config"}, []string{"truncated", "throughput"}, "héllo\t\"", one, math.Float64bits(1e21), 2},
		{"dup", "", []string{"x", "x"}, []string{"x", "throughput", "throughput"}, "日本語", math.Float64bits(-0.0), math.Float64bits(5e-324), 3},
		{"nan", "", []string{"p"}, []string{"throughput", "cycles"}, "w", one, math.Float64bits(math.NaN()), 2},
		{"inf", "", nil, []string{"throughput"}, "w", math.Float64bits(math.Inf(1)), one, 1},
		{"-inf", "", nil, []string{"cycles", "throughput"}, "w", one, math.Float64bits(math.Inf(-1)), 2},
		{"nan-overwritten", "", nil, []string{"throughput", "throughput"}, "w", math.Float64bits(math.NaN()), one, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkWriteJSON(t, jsonResultSet(tc.name, tc.desc, tc.axes, tc.metrics, tc.label, tc.v1, tc.v2, tc.rows%2 == 0, tc.rows))
		})
	}
}

// FuzzWriteJSON drives the document comparison, and the CSV read-back,
// from fuzz bytes: any header strings, any axis and metric names
// (colliding with the fixed columns, each other, or repeated), any
// labels, any float bit patterns and zero to three rows.
func FuzzWriteJSON(f *testing.F) {
	f.Add("rob-sweep", "desc", "rob", "throughput", "MEM2/art+mcf", uint64(0x3ff8000000000000), uint64(0), true, uint8(3))
	f.Add("", "", "workload", "config", "<script>&amp;", math.Float64bits(1e-7), math.Float64bits(1e21), false, uint8(2))
	f.Add("x", " ", "truncated", "truncated", "héllo\xff", math.Float64bits(math.NaN()), math.Float64bits(-0.0), false, uint8(1))
	f.Add("y", "", "x", "x", "日本語", math.Float64bits(5e-324), math.Float64bits(math.Inf(-1)), true, uint8(2))
	f.Add("empty", "", "rob", "throughput", "", math.Float64bits(math.Inf(1)), uint64(0), true, uint8(0))
	f.Add("csv", "", "a,b", `"q"`, `MEM2/art,"mcf"`, math.Float64bits(1e-20), math.Float64bits(123456789), true, uint8(3))
	f.Add("crlf", "", " lead", "x\r\ny", "a\r\nb\rc\n", math.Float64bits(1.0/3), math.Float64bits(-0.0), false, uint8(2))
	f.Add("dot", "", `\.`, "#", "\t", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), true, uint8(3))
	f.Fuzz(func(t *testing.T, name, desc, axis, metric, label string, v1, v2 uint64, truncated bool, rows uint8) {
		axes := []string{axis, "rob", axis}
		metrics := []string{metric, "throughput", metric}
		rs := jsonResultSet(name, desc, axes, metrics, label, v1, v2, truncated, int(rows%4))
		checkWriteJSON(t, rs)
		checkWriteCSV(t, rs)
	})
}

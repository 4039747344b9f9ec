package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// referenceRow is the encoding the RowEncoder must reproduce byte for
// byte: the row as a map[string]any through json.Encoder.
func referenceRow(axes, metrics []string, row Row) ([]byte, error) {
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
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(obj)
	return buf.Bytes(), err
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

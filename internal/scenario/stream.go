package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// RowEncoder serializes reduced rows as NDJSON: one JSON object per line,
// keyed exactly like the rows of the buffered JSON document — "workload",
// one key per axis (the point label), one per metric (the value),
// "truncated" and "config". Keys render in sorted order (encoding/json
// map order), so the byte stream is fully deterministic: a streamed
// smtsimd response is bit-identical to encoding the same ResultSet after
// the fact, whatever the worker count.
//
// The bytes are exactly those of json.NewEncoder(w).Encode on a
// map[string]any holding the row, without the reflection: the sorted
// key order and every key's `"key":` prefix are computed once, and each
// row is appended into one reused buffer and written with one Write.
// The same row appender builds the "rows" array of WriteJSON's document.
type RowEncoder struct {
	w      io.Writer
	fields []rowField // in output (sorted key) order
	buf    []byte
}

// rowField is one key of the output object and where its value lives.
type rowField struct {
	key    string
	prefix []byte // `{"key":` for the first field, `,"key":` after
	kind   fieldKind
	index  int // into Row.Labels or Row.Values
}

type fieldKind uint8

const (
	fieldWorkload fieldKind = iota
	fieldLabel
	fieldValue
	fieldTruncated
	fieldConfig
)

// NewRowEncoder builds an encoder for rows produced by sp.
func NewRowEncoder(w io.Writer, sp *Spec) *RowEncoder {
	return newRowEncoder(w, sp.AxisNames(), sp.metrics())
}

// newRowEncoder lays out the object's keys. Fields are collected in the
// order the map reference assigned them, and a repeated key keeps its
// last assignment, as the map did: a metric listed twice renders once.
func newRowEncoder(w io.Writer, axes, metrics []string) *RowEncoder {
	fields := make([]rowField, 0, len(axes)+len(metrics)+3)
	at := make(map[string]int, cap(fields))
	set := func(key string, kind fieldKind, index int) {
		f := rowField{key: key, kind: kind, index: index}
		if i, ok := at[key]; ok {
			fields[i] = f
			return
		}
		at[key] = len(fields)
		fields = append(fields, f)
	}
	set("workload", fieldWorkload, 0)
	for i, a := range axes {
		set(a, fieldLabel, i)
	}
	for i, m := range metrics {
		set(m, fieldValue, i)
	}
	set("truncated", fieldTruncated, 0)
	set("config", fieldConfig, 0)
	slices.SortFunc(fields, func(a, b rowField) int { return strings.Compare(a.key, b.key) })
	for i := range fields {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		fields[i].prefix = append(appendString([]byte{sep}, fields[i].key), ':')
	}
	return &RowEncoder{w: w, fields: fields}
}

// Encode writes one row as a single JSON line. A NaN or infinite value
// returns encoding/json's UnsupportedValueError and writes nothing.
func (e *RowEncoder) Encode(row Row) error {
	b, err := e.appendRow(e.buf[:0], row)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	e.buf = b
	_, err = e.w.Write(b)
	return err
}

// appendRow appends row to b as one compact JSON object. A NaN or
// infinite value returns encoding/json's UnsupportedValueError.
func (e *RowEncoder) appendRow(b []byte, row Row) ([]byte, error) {
	for _, f := range e.fields {
		b = append(b, f.prefix...)
		switch f.kind {
		case fieldWorkload:
			b = appendString(b, row.Workload)
		case fieldLabel:
			b = appendString(b, row.Labels[f.index])
		case fieldValue:
			v := row.Values[f.index]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				_, err := json.Marshal(v) // encoding/json's own UnsupportedValueError
				return b, err
			}
			b = appendFloat(b, v)
		case fieldTruncated:
			b = strconv.AppendBool(b, row.Truncated)
		case fieldConfig:
			b = appendString(b, row.Fingerprint)
		}
	}
	return append(b, '}'), nil
}

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on. Plain printable ASCII outside `"\<>&` is copied
// as is; any other byte hands the whole string to json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite float64 as encoding/json formats it:
// shortest round-trip digits, 'f' notation except 'e' below 1e-6 and
// from 1e21, with a two-digit negative exponent trimmed (e-09 → e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// WriteNDJSON emits the result set as NDJSON rows, byte-identical to
// streaming the same rows through a RowEncoder during execution.
func (rs *ResultSet) WriteNDJSON(w io.Writer) error {
	e := newRowEncoder(w, rs.Axes, rs.Metrics)
	for _, row := range rs.Rows {
		if err := e.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the result set as one indented JSON document: the
// title and description (each omitted when empty), the column names, and
// the rows as column-keyed objects. The bytes are exactly those of a
// json.Encoder with SetIndent("", "  ") over a struct holding the rows
// as maps, without the reflection: the compact document is appended with
// the RowEncoder's row appender, then indented by json.Indent, which is
// what the Encoder itself does after marshaling compact. A NaN or
// infinite value returns encoding/json's UnsupportedValueError and
// writes nothing.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	e := newRowEncoder(nil, rs.Axes, rs.Metrics)
	b := append(make([]byte, 0, 256*(len(rs.Rows)+1)), '{')
	if rs.Name != "" {
		b = append(appendString(append(b, `"title":`...), rs.Name), ',')
	}
	if rs.Description != "" {
		b = append(appendString(append(b, `"description":`...), rs.Description), ',')
	}
	b = append(b, `"columns":[`...)
	for i, c := range rs.columns() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, c)
	}
	b = append(b, `],"rows":[`...)
	for i, row := range rs.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = e.appendRow(b, row); err != nil {
			return err
		}
	}
	b = append(b, ']', '}')
	var out bytes.Buffer
	out.Grow(2 * len(b))
	if err := json.Indent(&out, b, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err := w.Write(out.Bytes())
	return err
}

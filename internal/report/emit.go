package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Dataset is the structured form behind every emitter: named columns over
// uniform rows of cells, where a cell is a string, a number, or a bool.
// The scenario engine reduces simulation grids into Datasets; Table
// renders them as the paper-style text tables, and WriteJSON / WriteCSV
// emit machine-readable forms so downstream tooling consumes values
// instead of scraping aligned text.
type Dataset struct {
	// Title prints above the text table and becomes the JSON "title".
	Title string
	// Description is optional prose carried into the JSON output.
	Description string
	// Columns are the column names, in emission order.
	Columns []string
	rows    [][]any
}

// NewDataset builds a dataset with the given title and column names.
func NewDataset(title string, columns ...string) *Dataset {
	return &Dataset{Title: title, Columns: columns}
}

// AddRow appends one row. Short rows are padded with empty cells; extra
// cells are dropped, mirroring Table.AddRow.
func (d *Dataset) AddRow(cells ...any) {
	row := make([]any, len(d.Columns))
	copy(row, cells)
	d.rows = append(d.rows, row)
}

// cellString renders one cell for the text and CSV emitters. Floats use
// the shortest representation that round-trips, so CSV output can be
// parsed back to the exact values.
func cellString(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case float32:
		return strconv.FormatFloat(float64(x), 'g', -1, 32)
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(x)
	}
}

// tableCell renders one cell for the aligned text table: floats get the
// fixed three-decimal figure formatting (F), everything else the CSV form.
func tableCell(v any) string {
	switch x := v.(type) {
	case float64:
		return F(x)
	case float32:
		return F(float64(x))
	default:
		return cellString(v)
	}
}

// Table renders the dataset as an aligned text table.
func (d *Dataset) Table() *Table {
	t := NewTable(d.Title, d.Columns...)
	for _, row := range d.rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = tableCell(v)
		}
		t.AddRow(cells...)
	}
	return t
}

// String renders the dataset as the text table.
func (d *Dataset) String() string { return d.Table().String() }

// jsonDoc is the JSON wire shape: rows as column-keyed objects, so
// consumers index by name and never depend on column order.
type jsonDoc struct {
	Title       string           `json:"title,omitempty"`
	Description string           `json:"description,omitempty"`
	Columns     []string         `json:"columns"`
	Rows        []map[string]any `json:"rows"`
}

// WriteJSON emits the dataset as one indented JSON document.
func (d *Dataset) WriteJSON(w io.Writer) error {
	doc := jsonDoc{
		Title:       d.Title,
		Description: d.Description,
		Columns:     d.Columns,
		Rows:        make([]map[string]any, 0, len(d.rows)),
	}
	for _, row := range d.rows {
		obj := make(map[string]any, len(row))
		for i, v := range row {
			obj[d.Columns[i]] = v
		}
		doc.Rows = append(doc.Rows, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteCSV emits a header row of column names followed by one record per
// row. Numeric cells round-trip exactly (shortest float form).
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d.Columns); err != nil {
		return err
	}
	rec := make([]string, len(d.Columns))
	for _, row := range d.rows {
		for i, v := range row {
			rec[i] = cellString(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

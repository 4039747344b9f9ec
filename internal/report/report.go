// Package report renders aligned text tables and bar charts, and formats
// their numeric cells (F, Pct), so the figures and scenario tables read
// like the paper's.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	// Title prints above the table.
	Title string
	// Columns are the header cells.
	Columns []string
	rows    [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Bar renders a proportional text bar for value within [0, max], e.g.
// "ICOUNT  |#########           | 0.337".
func Bar(label string, value, max float64, width int) string {
	if width <= 0 {
		width = 30
	}
	n := 0
	if max > 0 {
		n = int(value / max * float64(width))
	}
	if n > width {
		n = width
	}
	if n < 0 {
		n = 0
	}
	return fmt.Sprintf("%-14s |%s%s| %.3f",
		label, strings.Repeat("#", n), strings.Repeat(" ", width-n), value)
}

// F formats a float with three decimals (table cell helper).
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// Pct formats a ratio as a signed percentage (e.g. +37.2%).
func Pct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }

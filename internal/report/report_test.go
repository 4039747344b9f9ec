package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("title", "a", "bbbb")
	tb.AddRow("xxxxx", "y")
	tb.AddRow("z")
	s := tb.String()
	if !strings.HasPrefix(s, "title\n") {
		t.Fatalf("missing title:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows -> 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Fatalf("unexpected line count %d:\n%s", len(lines), s)
		}
	}
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	// Header and data rows must align on the widest cell.
	header := lines[1]
	if !strings.Contains(header, "a      bbbb") && !strings.Contains(header, "a    ") {
		t.Fatalf("header misaligned: %q", header)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "c1")
	tb.AddRow("v")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Fatal("empty title produced leading newline")
	}
}

func TestBar(t *testing.T) {
	s := Bar("RaT", 0.5, 1.0, 10)
	if !strings.Contains(s, "#####") {
		t.Fatalf("bar missing fill: %q", s)
	}
	if !strings.Contains(s, "0.500") {
		t.Fatalf("bar missing value: %q", s)
	}
	// Degenerate inputs must not panic or overflow.
	if s := Bar("x", 2, 1, 10); !strings.Contains(s, "##########") {
		t.Fatalf("overfull bar not clamped: %q", s)
	}
	Bar("x", -1, 1, 10)
	Bar("x", 1, 0, 10)
	Bar("x", 1, 1, 0)
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Fatalf("F = %q", F(1.23456))
	}
	if Pct(0.372) != "+37.2%" {
		t.Fatalf("Pct = %q", Pct(0.372))
	}
	if Pct(-0.05) != "-5.0%" {
		t.Fatalf("Pct = %q", Pct(-0.05))
	}
}

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

package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of strings and renders them with aligned columns,
// in the style of a paper table. It also knows how to emit CSV.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Shorter rows are padded with empty cells; a row
// with more cells than headers panics — silently dropping the overflow
// would hide experiment bugs (a value printed under the wrong column, or
// not at all).
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("stats: AddRow given %d cells for %d columns (table %q, row %q)",
			len(cells), len(t.headers), t.title, strings.Join(cells, " | ")))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// CSVWriter wraps a writer to request CSV output from Render: rendering
// code (the experiment harness) stays format-agnostic while callers (the
// sweep CLI's -csv flag) choose the representation.
type CSVWriter struct{ io.Writer }

// Render writes the table to w: aligned text normally, or CSV when w is a
// CSVWriter.
func (t *Table) Render(w io.Writer) {
	if c, ok := w.(CSVWriter); ok {
		if t.title != "" {
			fmt.Fprintf(c.Writer, "# %s\n", t.title)
		}
		t.RenderCSV(c.Writer)
		return
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// RenderCSV writes the table as CSV (headers first) to w. Cells containing
// commas or quotes are quoted per RFC 4180.
func (t *Table) RenderCSV(w io.Writer) {
	writeCSVRow(w, t.headers)
	for _, row := range t.rows {
		writeCSVRow(w, row)
	}
}

// String renders the aligned-text form of the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func writeCSVRow(w io.Writer, cells []string) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		parts[i] = c
	}
	fmt.Fprintln(w, strings.Join(parts, ","))
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

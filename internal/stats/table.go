package stats

import (
	"fmt"
	"strings"
)

// Table accumulates rows of strings and renders them with aligned
// fixed-width columns. The experiment harness uses it to print every
// reproduced table in a form directly comparable with the paper's.
type Table struct {
	Title     string
	headers   []string
	rows      [][]string
	notes     []string
	wallClock []int
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header count are kept; short
// rows are padded when rendering.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row formatting each value with %v, using %.4g for
// floats so tables stay narrow.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(row...)
}

// AddNote appends a footnote line printed after the table body.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// MarkWallClock marks column col as measured on the wall clock: its
// cells differ between two runs at the same seed, so comparisons of
// experiment output skip them.
func (t *Table) MarkWallClock(col int) { t.wallClock = append(t.wallClock, col) }

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Row returns row i.
func (t *Table) Row(i int) []string { return t.rows[i] }

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	cell := func(r []string, i int) string {
		if i < len(r) {
			return r[i]
		}
		return ""
	}
	for i := 0; i < ncols; i++ {
		w := len(cell(t.headers, i))
		for _, r := range t.rows {
			if l := len(cell(r, i)); l > w {
				w = l
			}
		}
		widths[i] = w
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < ncols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell(r, i))
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(ncols-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas), for machine post-processing of experiment output.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(r []string) {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

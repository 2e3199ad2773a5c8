package eval

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them as an aligned text table, the
// format every experiment runner prints its paper-analogue tables in.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row. Rows shorter than the header are padded; longer
// rows are truncated, so sloppy callers cannot corrupt the layout.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 { // no trailing whitespace on a line
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// FormatPercent renders a fraction as a percentage with two decimals,
// e.g. 0.8267 → "82.67%".
func FormatPercent(v float64) string {
	return fmt.Sprintf("%.2f%%", 100*v)
}

// FormatBasisPoints renders a fraction in basis points (per ten thousand),
// the unit the paper's small-budget AUC table uses, e.g. 8.09 bp.
func FormatBasisPoints(v float64) string {
	return fmt.Sprintf("%.2fbp", 10000*v)
}

// Package report renders experiment results for terminals and files:
// aligned ASCII tables, tps-graph heat maps in the spirit of the paper's
// greyscale contour figures, and tps-graph grids as CSV for external
// plotting.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var n int64
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
		m, err := io.WriteString(w, b.String())
		n += int64(m)
		return err
	}
	if err := line(t.header); err != nil {
		return n, err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return n, err
	}
	for _, r := range t.rows {
		if err := line(r); err != nil {
			return n, err
		}
	}
	return n, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}

// heatRamp maps a sensitivity value onto a glyph. The ramp follows the
// paper's legend orientation: insensitive regions (S near 1) are light,
// detecting regions (S < 0) are dark, catastrophic values are '#'.
var heatRamp = []struct {
	min  float64
	char byte
}{
	{0.5, '.'},  // clearly insensitive
	{0.0, ':'},  // inside the box but deviating
	{-0.5, '+'}, // detected
	{-1.5, 'x'}, // strongly detected
	{-5, 'X'},   // very strongly detected
}

func heatGlyph(s float64) byte {
	for _, r := range heatRamp {
		if s >= r.min {
			return r.char
		}
	}
	return '#'
}

// HeatMap renders a tps-graph-style grid of sensitivities as ASCII.
// s[j][i] is the value at column i, row j; rows print top-down from the
// LAST row so that the second axis increases upward as in the paper's
// figures. axis1/axis2 label the extremes.
func HeatMap(w io.Writer, s [][]float64, axis1, axis2 string) error {
	for j := len(s) - 1; j >= 0; j-- {
		var b strings.Builder
		b.WriteString("  ")
		for _, v := range s[j] {
			b.WriteByte(heatGlyph(v))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	legend := fmt.Sprintf("  x-axis: %s, y-axis: %s (up)\n  glyphs: '.' S>=0.5  ':' 0<=S<0.5  '+' -0.5<=S<0  'x','X','#' stronger detection\n",
		axis1, axis2)
	_, err := io.WriteString(w, legend)
	return err
}

// GridCSV writes a 2-D grid as CSV: first column is axis2, first row is
// axis1, matching the tps-graph layout.
func GridCSV(w io.Writer, axis1, axis2 []float64, s [][]float64) error {
	var b strings.Builder
	b.WriteString("axis2\\axis1")
	for _, v := range axis1 {
		fmt.Fprintf(&b, ",%g", v)
	}
	b.WriteByte('\n')
	for j, row := range s {
		a2 := 0.0
		if j < len(axis2) {
			a2 = axis2[j]
		}
		fmt.Fprintf(&b, "%g", a2)
		for _, v := range row {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Engineering formats a value with an SI prefix, e.g. 2e-05 -> "20µ".
func Engineering(v float64) string {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs == 0:
		return "0"
	case abs >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.3gk", v/1e3)
	case abs >= 1:
		return fmt.Sprintf("%.3g", v)
	case abs >= 1e-3:
		return fmt.Sprintf("%.3gm", v*1e3)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3gµ", v*1e6)
	case abs >= 1e-9:
		return fmt.Sprintf("%.3gn", v*1e9)
	default:
		return fmt.Sprintf("%.3gp", v*1e12)
	}
}

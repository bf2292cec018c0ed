// Package metrics provides the reporting primitives for the experiment
// harness: aligned text tables, shared-axis series blocks
// (the textual equivalent of the paper's figures) and a minimal ASCII
// chart for quick terminal inspection.
package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// ErrBadSeries is returned when series in one figure disagree on X.
var ErrBadSeries = errors.New("metrics: series length mismatch")

// Table is an aligned text table with a header row.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: append([]string(nil), headers...)}
}

// AddRowf appends a row of formatted values: each argument is rendered
// with %v for strings/ints and %.4g for floats. Missing cells render
// empty, extra cells are an error at render time.
func (t *Table) AddRowf(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		case float32:
			row[i] = formatFloat(float64(x))
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	if math.IsNaN(x) {
		return "NaN"
	}
	return fmt.Sprintf("%.4g", x)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		if len(row) > len(t.headers) {
			return fmt.Errorf("row has %d cells for %d headers: %w", len(row), len(t.headers), ErrBadSeries)
		}
		for i, c := range row {
			if w := utf8.RuneCountInString(c); w > widths[i] {
				widths[i] = w
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i := range t.headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Series is one named curve of a figure.
type Series struct {
	// Name labels the curve ("krum 33% byz", ...).
	Name string
	// Y holds the curve values; all series of one figure share the X
	// axis.
	Y []float64
}

// Figure is a shared-X collection of curves — the textual form of one
// paper figure.
type Figure struct {
	// Title is printed above the block.
	Title string
	// XLabel names the shared axis ("round").
	XLabel string
	// X is the shared axis.
	X []float64
	// Series are the curves.
	Series []Series
}

// Render writes the figure as an aligned multi-column block: X then one
// column per series.
func (f *Figure) Render(w io.Writer) error {
	for _, s := range f.Series {
		if len(s.Y) != len(f.X) {
			return fmt.Errorf("series %q has %d points for %d x values: %w", s.Name, len(s.Y), len(f.X), ErrBadSeries)
		}
	}
	if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
		return err
	}
	headers := make([]string, 0, 1+len(f.Series))
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(headers...)
	for i, x := range f.X {
		row := make([]interface{}, 0, len(headers))
		row = append(row, x)
		for _, s := range f.Series {
			row = append(row, s.Y[i])
		}
		t.AddRowf(row...)
	}
	return t.Render(w)
}

// ASCIIChart renders the figure as a crude height×width terminal chart,
// one glyph per series, for quick visual inspection. Values are
// min-max normalized over all series.
func (f *Figure) ASCIIChart(w io.Writer, width, height int) error {
	if width < 8 || height < 2 {
		return fmt.Errorf("chart %dx%d too small: %w", width, height, ErrBadSeries)
	}
	for _, s := range f.Series {
		if len(s.Y) != len(f.X) {
			return fmt.Errorf("series %q mismatched: %w", s.Name, ErrBadSeries)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for _, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
	}
	if math.IsInf(lo, 1) {
		return fmt.Errorf("no finite data: %w", ErrBadSeries)
	}
	if hi == lo {
		hi = lo + 1
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	n := len(f.X)
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for i, y := range s.Y {
			if math.IsNaN(y) {
				continue
			}
			col := 0
			if n > 1 {
				col = i * (width - 1) / (n - 1)
			}
			rowF := (y - lo) / (hi - lo)
			row := height - 1 - int(rowF*float64(height-1)+0.5)
			grid[row][col] = g
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s  [%.4g .. %.4g]\n", f.Title, lo, hi)
	for _, line := range grid {
		sb.WriteString("|")
		sb.Write(line)
		sb.WriteString("|\n")
	}
	for si, s := range f.Series {
		fmt.Fprintf(&sb, "  %c = %s\n", glyphs[si%len(glyphs)], s.Name)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

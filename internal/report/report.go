// Package report renders experiment results as aligned text tables and
// simple series plots, so every table and figure of the paper can be
// regenerated as terminal output by the experiment runners and benches.
package report

import (
	"bytes"
	"fmt"
	"math"
	"strings"
)

// Table renders rows under headers with column alignment.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for table cells.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Pct formats a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// Count formats large counts with thousands separators.
func Count(n int64) string {
	s := fmt.Sprintf("%d", n)
	if n < 0 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

// Bar renders a labelled horizontal bar of width proportional to
// value/max (for the Figure 3 overlap bars).
func Bar(label string, value, max float64, width int) string {
	if max <= 0 || width <= 0 {
		return fmt.Sprintf("%-28s |\n", label)
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return fmt.Sprintf("%-28s |%s%s| %s\n", label,
		strings.Repeat("#", n), strings.Repeat(" ", width-n), Pct(100*value/max))
}

// CDFPlot renders empirical CDF curves as ASCII art: x ascending, F(x)
// from 0 at the bottom to 1 at the top. Multiple named curves share the
// axes; each is drawn with its own rune. Inputs are (x, F(x)) point
// series as produced by stats.ECDF.Points.
func CDFPlot(names []string, curves [][2][]float64, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 5 {
		height = 5
	}
	marks := []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

	// Global x range.
	minX, maxX := math.Inf(1), math.Inf(-1)
	for _, c := range curves {
		for _, x := range c[0] {
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
		}
	}
	if math.IsInf(minX, 1) || minX == maxX {
		return "(no data)\n"
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = bytes.Repeat([]byte{' '}, width)
	}
	for ci, c := range curves {
		mark := marks[ci%len(marks)]
		xs, fs := c[0], c[1]
		for i := range xs {
			col := int((xs[i] - minX) / (maxX - minX) * float64(width-1))
			row := height - 1 - int(fs[i]*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = mark
			}
		}
	}

	var b strings.Builder
	for i, row := range grid {
		f := 1 - float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%4.2f |%s|\n", f, string(row))
	}
	fmt.Fprintf(&b, "      %-*.3g%*.3g\n", width/2, minX, width-width/2, maxX)
	for i, name := range names {
		fmt.Fprintf(&b, "  %c = %s\n", marks[i%len(marks)], name)
	}
	return b.String()
}

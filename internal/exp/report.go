package exp

import (
	"fmt"
	"io"
	"strings"
)

// table is a minimal aligned-column text table writer.
type table struct {
	w    io.Writer
	rows [][]string
	seps map[int]bool
}

func newTable(w io.Writer) *table {
	return &table{w: w, seps: make(map[int]bool)}
}

func (t *table) row(cols ...string) {
	t.rows = append(t.rows, cols)
}

// sep inserts a horizontal rule before the next row.
func (t *table) sep() {
	t.seps[len(t.rows)] = true
}

func (t *table) flush() {
	widths := []int{}
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	for i, r := range t.rows {
		if t.seps[i] {
			fmt.Fprintln(t.w, strings.Repeat("-", total))
		}
		for j, c := range r {
			pad := widths[j] - len(c)
			if j == 0 {
				fmt.Fprintf(t.w, "%s%s  ", c, strings.Repeat(" ", pad))
			} else {
				fmt.Fprintf(t.w, "%s%s  ", strings.Repeat(" ", pad), c)
			}
		}
		fmt.Fprintln(t.w)
	}
	if t.seps[len(t.rows)] {
		fmt.Fprintln(t.w, strings.Repeat("-", total))
	}
}

// pct formats a fraction as a one-decimal percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

package experiments

import (
	"fmt"
	"strings"
)

// textTable accumulates rows of cells and renders them with aligned
// columns, which is how every table and figure in this package is
// printed.
type textTable struct {
	title string
	rows  [][]string
}

func newTextTable(title string) *textTable {
	return &textTable{title: title}
}

func (t *textTable) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// rule inserts a horizontal separator.
func (t *textTable) rule() {
	t.rows = append(t.rows, nil)
}

func (t *textTable) String() string {
	widths := []int{}
	for _, row := range t.rows {
		for i, c := range row {
			for len(widths) <= i {
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
	var b strings.Builder
	b.WriteString(t.title)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("=", min(total, 100)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		if row == nil {
			b.WriteString(strings.Repeat("-", min(total, 100)))
			b.WriteByte('\n')
			continue
		}
		for i, c := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// f4 formats a measurement the way the paper's tables do.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// f2 formats percentages.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

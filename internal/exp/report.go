// Package exp holds the paper's device-characterization drivers (one
// per table and figure of §4-§7), the §8.4 area report, the paper's
// claims (Takeaways, ArtifactClaims), and the Table every experiment
// renders as aligned text and CSV. The system figures (Figs. 3 and
// 16-19) and the run table are scenario specs; SysOptions is the scale
// cmd/simulate's flags give them (see scenario.FigureSpec). The
// experiment index lives in the top-level README.md. Each
// characterization driver lists its sweep points once, runs them
// through internal/runner in one call, and builds its table from the
// results. The claims plan no cells: they read characterization points
// and the Figs. 17 and 18 tables the caller ran (scenario.ClaimFigures).
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a generic result table: the unit every driver returns.
type Table struct {
	ID      string // experiment id, e.g. "fig6", "table3"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := printRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := printRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (encoding/csv): a cell is quoted
// only when it holds a comma, a quote, a line break or a leading space,
// so tables of plain names and numbers keep their unquoted bytes.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

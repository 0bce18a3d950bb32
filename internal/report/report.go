// Package report renders experiment output as aligned text, CSV or
// markdown tables, the formats the harness emits for every reproduced
// table and figure. Cells keep the numbers they are given; one
// function, cellText, decides how each prints when a table is written.
package report

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Table is a simple column-oriented table builder.
type Table struct {
	Title   string
	Headers []string
	// Rows hold one cell per column: a string (text), a Num (a
	// measured quantity and its Format), a bare float64, or an int or
	// uint64 (a count).
	Rows [][]any
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends cells as a row.
func (t *Table) AddRow(cells ...any) { t.Rows = append(t.Rows, cells) }

// Value returns the number in row r, column c exactly as the
// experiment computed it: the ratio behind a percentage, not its
// printed digits. ok is false for a text cell.
func (t *Table) Value(r, c int) (v float64, ok bool) {
	switch x := t.Rows[r][c].(type) {
	case Num:
		return x.V, true
	case float64:
		return x, true
	case int:
		return float64(x), true
	case uint64:
		return float64(x), true
	}
	return 0, false
}

// Column returns the numbers of column c, top to bottom, as Value
// reads them; text cells are skipped.
func (t *Table) Column(c int) []float64 {
	var out []float64
	for r := range t.Rows {
		if v, ok := t.Value(r, c); ok {
			out = append(out, v)
		}
	}
	return out
}

// A Num is a measured quantity; its Format decides how it prints.
type Num struct {
	V float64
	F Format
}

// Format names how a Num prints.
type Format uint8

const (
	// Fixed0 to Fixed5 print that many decimals; Fixed3 is the
	// normalized-IPC convention.
	Fixed0 Format = iota
	Fixed1
	Fixed2
	Fixed3
	Fixed4
	Fixed5
	// Percent prints a ratio as a percentage: 0.1234 is "12.34%".
	Percent
	// Points prints a value already in percent: 24.59 is "24.59%".
	Points
	// Shortest prints the fewest digits that read back exactly (%g).
	Shortest
)

// cellText is the one place a table value turns into text. A bare
// float64 prints compactly (formatFloat), an integer or any other
// value as %v.
func cellText(c any) string {
	switch v := c.(type) {
	case string:
		return v
	case float64:
		return formatFloat(v)
	case Num:
		switch v.F {
		case Percent:
			return strconv.FormatFloat(100*v.V, 'f', 2, 64) + "%"
		case Points:
			return strconv.FormatFloat(v.V, 'f', 2, 64) + "%"
		case Shortest:
			return strconv.FormatFloat(v.V, 'g', -1, 64)
		default:
			return strconv.FormatFloat(v.V, 'f', int(v.F), 64)
		}
	}
	return fmt.Sprint(c)
}

// text is the table as it prints: the headers, then every row with
// each cell through cellText.
func (t *Table) text() [][]string {
	out := [][]string{t.Headers}
	for _, row := range t.Rows {
		line := make([]string, len(row))
		for i, c := range row {
			line[i] = cellText(c)
		}
		out = append(out, line)
	}
	return out
}

// formatFloat picks a compact precision: integers print bare, small
// magnitudes keep 3 significant decimals.
func formatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// WriteText renders an aligned, boxed text table.
func (t *Table) WriteText(w io.Writer) error {
	lines := t.text()
	widths := make([]int, len(t.Headers))
	for _, line := range lines {
		for i, c := range line[:min(len(line), len(widths))] {
			widths[i] = max(widths[i], len(c))
		}
	}
	sep := make([]string, len(widths))
	for i, n := range widths {
		sep[i] = strings.Repeat("-", n)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for _, line := range slices.Insert(lines, 1, sep) {
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as RFC-4180-ish CSV (quotes only when
// needed).
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	for _, line := range t.text() {
		for i, c := range line {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMarkdown renders a GitHub-flavoured markdown table (with the
// title as a heading), for inclusion in EXPERIMENTS.md-style reports.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	for i, line := range t.text() {
		b.WriteString("|")
		for _, c := range line {
			b.WriteString(" " + strings.ReplaceAll(c, "|", "\\|") + " |")
		}
		b.WriteString("\n")
		if i == 0 {
			b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Formats supported by Write, in CLI-help order.
var Formats = []string{"text", "csv", "md"}

// ValidFormat reports whether Write accepts the format name.
func ValidFormat(format string) bool { return slices.Contains(Formats, format) }

// Write renders the table in the named format ("text", "csv" or
// "md"); unknown names fall back to text, matching the CLI's default.
func (t *Table) Write(w io.Writer, format string) error {
	switch format {
	case "csv":
		return t.WriteCSV(w)
	case "md":
		return t.WriteMarkdown(w)
	default:
		return t.WriteText(w)
	}
}

// Ext returns the file extension for a format.
func Ext(format string) string {
	if format == "csv" || format == "md" {
		return format
	}
	return "txt"
}

// Pct is a ratio that prints as a percentage.
func Pct(v float64) Num { return Num{v, Percent} }

// F3 is a ratio that prints with three decimals (the normalized-IPC
// convention).
func F3(v float64) Num { return Num{v, Fixed3} }

package report

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func sample() *Table {
	t := New("demo", "name", "value", "note")
	t.AddRow("alpha", 1.5, "x")
	t.AddRow("beta", 1234.5678, "y,z")
	t.AddRow("gamma", 42, `quote"me`)
	return t
}

func TestWriteTextAligned(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line's second column starts at the
	// same offset.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[2:] {
		if len(l) < idx {
			t.Fatalf("short line %q", l)
		}
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"y,z"`) {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
	if !strings.Contains(out, `"quote""me"`) {
		t.Errorf("quote cell not escaped:\n%s", out)
	}
	if !strings.HasPrefix(out, "name,value,note\n") {
		t.Errorf("header wrong:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		42:        "42",
		1.5:       "1.500",
		1234.5678: "1234.6",
		0.123456:  "0.123",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestHelpers(t *testing.T) {
	if got := Pct(0.1234); got != (Num{0.1234, Percent}) || cellText(got) != "12.34%" {
		t.Errorf("Pct: %#v prints %q", got, cellText(got))
	}
	if got := F3(0.12345); got != (Num{0.12345, Fixed3}) || cellText(got) != "0.123" {
		t.Errorf("F3: %#v prints %q", got, cellText(got))
	}
}

// TestCellMatchesOldHelpers pins every Format to the fmt layout its
// cells were printed with before tables kept numbers, at rounding
// boundaries, zero, one, negatives and large magnitudes.
func TestCellMatchesOldHelpers(t *testing.T) {
	values := []float64{0.99995, 0.00005, 0.000049, 0.125, 0, 1, -0.5, -0.99995,
		-1234.5678, 100, 99.995, 0.0049, 0.013241, 1e12, 123456789.987, math.Copysign(0, -1)}
	layouts := map[Format]func(float64) string{
		Percent:  func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) },
		Points:   func(v float64) string { return fmt.Sprintf("%.2f%%", v) },
		Shortest: func(v float64) string { return fmt.Sprintf("%g", v) },
	}
	for prec := 0; prec <= 5; prec++ {
		layout := fmt.Sprintf("%%.%df", prec)
		layouts[Fixed0+Format(prec)] = func(v float64) string { return fmt.Sprintf(layout, v) }
	}
	for f, old := range layouts {
		for _, v := range values {
			if got, want := cellText(Num{v, f}), old(v); got != want {
				t.Errorf("format %d, %v: Cell = %q, old helper printed %q", f, v, got, want)
			}
		}
	}
	for _, v := range values {
		if got, want := cellText(v), formatFloat(v); got != want {
			t.Errorf("bare float64 %v: Cell = %q, formatFloat printed %q", v, got, want)
		}
	}
	for v, want := range map[float64]string{0.99995: "100.00%", 0.00005: "0.01%", 0: "0.00%", 1: "100.00%", -0.5: "-50.00%"} {
		if got := cellText(Pct(v)); got != want {
			t.Errorf("Pct(%v) prints %q, want %q", v, got, want)
		}
	}
	// Integers print as %v, at any size.
	tab := New("", "a", "b", "c", "d")
	tab.AddRow(uint64(math.MaxUint64), int64(math.MinInt64), 1<<53+1, -7)
	for i, want := range []string{"18446744073709551615", "-9223372036854775808", "9007199254740993", "-7"} {
		if got := cellText(tab.Rows[0][i]); got != want {
			t.Errorf("integer cell %d prints %q, want %q", i, got, want)
		}
	}
}

// TestValueReadsBackUnrounded: a reader gets the quantity the table
// was given, not the digits it prints.
func TestValueReadsBackUnrounded(t *testing.T) {
	tab := New("", "label", "pct", "ratio", "count", "float", "dash")
	tab.AddRow("x", Pct(0.123456), F3(0.98765), uint64(42), 2.5, "-")
	for col, want := range map[int]float64{1: 0.123456, 2: 0.98765, 3: 42, 4: 2.5} {
		if v, ok := tab.Value(0, col); !ok || v != want {
			t.Errorf("Value(0, %d) = %v, %v; want %v", col, v, ok, want)
		}
	}
	for _, col := range []int{0, 5} {
		if _, ok := tab.Value(0, col); ok {
			t.Errorf("text cell %d read back as a number", col)
		}
	}
}

func TestUntitledTable(t *testing.T) {
	tab := New("", "a")
	tab.AddRow("x")
	var b strings.Builder
	if err := tab.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "==") {
		t.Error("untitled table printed a title bar")
	}
}

func TestWriteMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sample().WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "### demo") {
		t.Error("missing heading")
	}
	if !strings.Contains(out, "| name | value | note |") {
		t.Errorf("header row missing:\n%s", out)
	}
	if !strings.Contains(out, "|---|---|---|") {
		t.Error("separator missing")
	}
	if !strings.Contains(out, "| alpha | 1.500 | x |") {
		t.Errorf("data row missing:\n%s", out)
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tab := New("t", "a")
	tab.AddRow("x|y")
	var b strings.Builder
	if err := tab.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x\|y`) {
		t.Errorf("pipe not escaped:\n%s", b.String())
	}
}

func TestFormatDispatch(t *testing.T) {
	for _, f := range Formats {
		if !ValidFormat(f) {
			t.Errorf("%s should be valid", f)
		}
	}
	if ValidFormat("yaml") {
		t.Error("yaml should be invalid")
	}
	if Ext("md") != "md" || Ext("csv") != "csv" || Ext("text") != "txt" {
		t.Error("extension mapping wrong")
	}
	// Write dispatches on format name.
	for format, marker := range map[string]string{
		"text": "== demo ==",
		"csv":  "name,value,note",
		"md":   "### demo",
	} {
		var b strings.Builder
		if err := sample().Write(&b, format); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), marker) {
			t.Errorf("%s output missing %q:\n%s", format, marker, b.String())
		}
	}
}

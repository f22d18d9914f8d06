package report

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "2")
	var sb strings.Builder
	if _, err := tb.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table lines = %d:\n%s", len(lines), sb.String())
	}
	// The value column must start at the same offset in both rows.
	if strings.Index(lines[3], "1") != strings.Index(lines[4], "2") {
		t.Errorf("columns misaligned:\n%s", sb.String())
	}
}

func TestCSVQuoting(t *testing.T) {
	var sb strings.Builder
	err := CSV(&sb, []string{"a", "b"}, [][]string{
		{"plain", "with,comma"},
		{"with\"quote", "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "\"with,comma\"") {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, "\"with\"\"quote\"") {
		t.Errorf("quote cell not escaped: %q", out)
	}
}

func TestChartRendersShapes(t *testing.T) {
	x := make([]float64, 20)
	y := make([]float64, 20)
	for i := range x {
		x[i] = float64(i)
		if i < 10 {
			y[i] = 10000
		} else {
			y[i] = 100
		}
	}
	c := &Chart{
		Title: "cliff", XLabel: "file size",
		X:      x,
		Series: []ChartSeries{{Name: "ext2", Y: y, Marker: '*'}},
		LogY:   true,
	}
	var sb strings.Builder
	if _, err := c.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "cliff") || !strings.Contains(out, "* = ext2") {
		t.Errorf("chart output missing pieces:\n%s", out)
	}
	// The top row must contain early points, the bottom row late ones.
	lines := strings.Split(out, "\n")
	var topRow, bottomRow string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			if topRow == "" {
				topRow = l
			}
			bottomRow = l
		}
	}
	if !strings.Contains(topRow, "*") {
		t.Errorf("no points on top row:\n%s", out)
	}
	_ = bottomRow
}

func TestChartEmpty(t *testing.T) {
	var sb strings.Builder
	c := &Chart{Title: "empty"}
	if _, err := c.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty chart did not say so")
	}
}

func TestHistogramRender(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 80; i++ {
		h.Record(4 * sim.Microsecond)
	}
	for i := 0; i < 20; i++ {
		h.Record(8 * sim.Millisecond)
	}
	var sb strings.Builder
	if err := Histogram(&sb, "fig3b", &h); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// 4000 ns lands in bucket 11 (lower bound 2 µs); 8 ms in bucket 22
	// (lower bound 4 ms).
	for _, want := range []string{"fig3b", "n=100", "2us", "4ms", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q:\n%s", want, out)
		}
	}
}

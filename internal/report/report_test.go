package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"A", "Long header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	// All rows equal width under alignment.
	w := len(lines[0])
	for i, l := range lines {
		if len(l) != w {
			t.Errorf("line %d width %d != %d:\n%s", i, len(l), w, out)
		}
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing separator row")
	}
	if !strings.Contains(out, "longer-cell") {
		t.Error("cell content lost")
	}
}

func TestTableEmptyRows(t *testing.T) {
	out := Table([]string{"A"}, nil)
	if !strings.Contains(out, "A") {
		t.Error("headers missing")
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
	if Pct(12.34) != "12.3%" {
		t.Errorf("Pct = %q", Pct(12.34))
	}
}

func TestCount(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		7:          "7",
		999:        "999",
		1000:       "1,000",
		1234567:    "1,234,567",
		1000000000: "1,000,000,000",
		-5:         "-5",
	}
	for in, want := range cases {
		if got := Count(in); got != want {
			t.Errorf("Count(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestBar(t *testing.T) {
	out := Bar("label", 50, 100, 10)
	if !strings.Contains(out, "#####") {
		t.Errorf("bar fill wrong: %q", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("bar percentage wrong: %q", out)
	}
	// Value above max clamps.
	over := Bar("label", 200, 100, 10)
	if strings.Count(over, "#") != 10 {
		t.Errorf("overfull bar not clamped: %q", over)
	}
	// Degenerate max.
	if out := Bar("label", 1, 0, 10); !strings.Contains(out, "label") {
		t.Errorf("zero-max bar broken: %q", out)
	}
}

func TestCDFPlot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	fs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	out := CDFPlot([]string{"demo"}, [][2][]float64{{xs, fs}}, 20, 6)
	if !strings.Contains(out, "*") {
		t.Fatalf("no points plotted:\n%s", out)
	}
	if !strings.Contains(out, "demo") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "1.00 |") || !strings.Contains(out, "0.00 |") {
		t.Errorf("axis labels missing:\n%s", out)
	}
	// Two curves use distinct marks.
	out2 := CDFPlot([]string{"a", "b"}, [][2][]float64{{xs, fs}, {xs, fs}}, 20, 6)
	if !strings.Contains(out2, "o = b") {
		t.Errorf("second curve legend missing:\n%s", out2)
	}
}

func TestCDFPlotDegenerate(t *testing.T) {
	if out := CDFPlot(nil, nil, 20, 6); out != "(no data)\n" {
		t.Errorf("empty plot = %q", out)
	}
	same := [][2][]float64{{{3, 3}, {0.5, 1}}}
	if out := CDFPlot([]string{"x"}, same, 20, 6); out != "(no data)\n" {
		t.Errorf("degenerate x range = %q", out)
	}
	// Tiny dimensions are clamped, not broken.
	out := CDFPlot([]string{"x"}, [][2][]float64{{{1, 2}, {0.5, 1}}}, 1, 1)
	if !strings.Contains(out, "*") {
		t.Error("clamped plot lost data")
	}
}

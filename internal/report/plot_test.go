package report

import (
	"math"
	"strings"
	"testing"
)

func TestAsciiPlotBasic(t *testing.T) {
	s := []Series{{
		Name: "savings",
		X:    []float64{0, 10, 20, 30},
		Y:    []float64{10.3, 8.7, 7.0, 5.7},
	}}
	out := AsciiPlot("fig", s, 40, 10)
	if !strings.Contains(out, "fig") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "10.3") || !strings.Contains(out, "5.7") {
		t.Errorf("missing y-axis labels:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "30") {
		t.Errorf("missing x-axis labels:\n%s", out)
	}
	if strings.Count(out, "*") != 5 { // 4 data points + the legend glyph
		t.Errorf("expected 4 markers plus legend:\n%s", out)
	}
	if !strings.Contains(out, "* = savings") {
		t.Errorf("missing legend:\n%s", out)
	}
}

func TestAsciiPlotMonotoneSeriesDescends(t *testing.T) {
	// A decreasing series must place later points on lower rows.
	s := []Series{{X: []float64{0, 1, 2}, Y: []float64{3, 2, 1}}}
	out := AsciiPlot("", s, 30, 9)
	lines := strings.Split(out, "\n")
	var rows []int
	for r, line := range lines {
		if strings.Contains(line, "*") {
			for range line[strings.Index(line, "*"):] {
				// one row may hold one point here; record the row once per *
			}
			count := strings.Count(line, "*")
			for i := 0; i < count; i++ {
				rows = append(rows, r)
			}
		}
	}
	if len(rows) != 3 {
		t.Fatalf("markers = %d:\n%s", len(rows), out)
	}
}

func TestAsciiPlotTwoSeries(t *testing.T) {
	s := []Series{
		{Name: "a", X: []float64{0, 1}, Y: []float64{1, 2}},
		{Name: "b", X: []float64{0, 1}, Y: []float64{2, 1}},
	}
	out := AsciiPlot("two", s, 20, 8)
	if !strings.Contains(out, "* = a") || !strings.Contains(out, "* = b") {
		t.Errorf("legend broken:\n%s", out)
	}
	// Four points in four corners, plus one '*' in each legend line.
	if n := strings.Count(out, "*"); n != 6 {
		t.Errorf("%d markers, want 4 points and 2 legend glyphs:\n%s", n, out)
	}
}

func TestAsciiPlotDegenerate(t *testing.T) {
	if out := AsciiPlot("t", nil, 20, 8); !strings.Contains(out, "no finite data") {
		t.Errorf("empty plot = %q", out)
	}
	s := []Series{{X: []float64{1}, Y: []float64{math.Inf(1)}}}
	if out := AsciiPlot("t", s, 20, 8); !strings.Contains(out, "no finite data") {
		t.Errorf("inf plot = %q", out)
	}
	// Single finite point must not divide by zero.
	s = []Series{{X: []float64{1}, Y: []float64{5}}}
	out := AsciiPlot("t", s, 20, 8)
	if !strings.Contains(out, "*") {
		t.Errorf("single point missing:\n%s", out)
	}
}

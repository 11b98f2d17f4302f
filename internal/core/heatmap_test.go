package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// heatmap renders a 2-D grid as ASCII shading: values map onto a density
// ramp from the grid minimum (darkest glyph) to the maximum; +Inf cells
// (infeasible regions) render as '.'. Rows are printed top-to-bottom in the
// given order; xLabel/yLabel annotate the axes.
func heatmap(title string, grid [][]float64, xLabel, yLabel string) string {
	const ramp = "@#%*+=-: " // low value = dark = '@'
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, row := range grid {
		for _, v := range row {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	if math.IsInf(minV, 1) {
		sb.WriteString("(no finite data)\n")
		return sb.String()
	}
	if maxV == minV {
		maxV = minV + 1
	}
	for r, row := range grid {
		if r == 0 && yLabel != "" {
			fmt.Fprintf(&sb, "%s\n", yLabel)
		}
		sb.WriteString("  |")
		for _, v := range row {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				sb.WriteByte('.')
				continue
			}
			idx := int((v - minV) / (maxV - minV) * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("  +")
	width := 0
	if len(grid) > 0 {
		width = len(grid[0])
	}
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	if xLabel != "" {
		fmt.Fprintf(&sb, "   %s\n", xLabel)
	}
	fmt.Fprintf(&sb, "   @ = %.3g (best)   space = %.3g   . = infeasible\n", minV, maxV)
	return sb.String()
}

func TestHeatmapBasic(t *testing.T) {
	grid := [][]float64{
		{1, 2, 3},
		{4, math.Inf(1), 6},
		{7, 8, 9},
	}
	out := heatmap("hm", grid, "x", "y")
	if !strings.Contains(out, "hm") || !strings.Contains(out, "x") || !strings.Contains(out, "y") {
		t.Errorf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "@") {
		t.Errorf("minimum glyph missing:\n%s", out)
	}
	if !strings.Contains(out, ".") {
		t.Errorf("infeasible glyph missing:\n%s", out)
	}
	if !strings.Contains(out, "1 (best)") {
		t.Errorf("legend missing min value:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	rowLen := -1
	for _, l := range lines {
		if strings.HasPrefix(l, "  |") {
			if rowLen == -1 {
				rowLen = len(l)
			} else if len(l) != rowLen {
				t.Errorf("ragged rows:\n%s", out)
			}
		}
	}
}

func TestHeatmapDegenerate(t *testing.T) {
	if out := heatmap("t", nil, "", ""); !strings.Contains(out, "no finite data") {
		t.Errorf("empty heatmap = %q", out)
	}
	if out := heatmap("t", [][]float64{{math.Inf(1)}}, "", ""); !strings.Contains(out, "no finite data") {
		t.Errorf("all-inf heatmap = %q", out)
	}
	// Constant grid must not divide by zero.
	out := heatmap("t", [][]float64{{5, 5}}, "", "")
	if !strings.Contains(out, "@") {
		t.Errorf("constant grid:\n%s", out)
	}
}

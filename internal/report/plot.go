package report

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of an ASCII plot; every series is drawn in '*'.
type Series struct {
	Name string
	X, Y []float64
}

// AsciiPlot renders one or more series as a fixed-size character plot with
// axis annotations — enough to eyeball the monotone trends of the paper's
// Figure 2 in a terminal. Width and height are the plot-area dimensions in
// characters (minimums apply).
func AsciiPlot(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			points++
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if points == 0 {
		return title + "\n(no finite data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range series {
		for i := range s.X {
			if math.IsNaN(s.X[i]) || math.IsNaN(s.Y[i]) || math.IsInf(s.Y[i], 0) {
				continue
			}
			col := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			row := height - 1 - int(math.Round((s.Y[i]-minY)/(maxY-minY)*float64(height-1)))
			grid[row][col] = '*'
		}
	}

	var sb strings.Builder
	if title != "" {
		sb.WriteString(title)
		sb.WriteByte('\n')
	}
	yHi := fmt.Sprintf("%.3g", maxY)
	yLo := fmt.Sprintf("%.3g", minY)
	pad := len(yHi)
	if len(yLo) > pad {
		pad = len(yLo)
	}
	for r := range grid {
		label := strings.Repeat(" ", pad)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", pad, yHi)
		case height - 1:
			label = fmt.Sprintf("%*s", pad, yLo)
		}
		sb.WriteString(label)
		sb.WriteString(" |")
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	sb.WriteString(strings.Repeat(" ", pad))
	sb.WriteString(" +")
	sb.WriteString(strings.Repeat("-", width))
	sb.WriteByte('\n')
	xLo := fmt.Sprintf("%.3g", minX)
	xHi := fmt.Sprintf("%.3g", maxX)
	gap := width - len(xLo) - len(xHi)
	if gap < 1 {
		gap = 1
	}
	sb.WriteString(strings.Repeat(" ", pad+2))
	sb.WriteString(xLo)
	sb.WriteString(strings.Repeat(" ", gap))
	sb.WriteString(xHi)
	sb.WriteByte('\n')
	for _, s := range series {
		if s.Name == "" {
			continue
		}
		fmt.Fprintf(&sb, "%s * = %s\n", strings.Repeat(" ", pad), s.Name)
	}
	return sb.String()
}

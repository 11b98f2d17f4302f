package core

import (
	"fmt"
	"math"
	"testing"

	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

// Min returns the grid minimum and its coordinates; ok is false when the
// whole grid is infeasible.
func (l *Landscape) Min() (vdd, vts, e float64, ok bool) {
	e = math.Inf(1)
	for i := range l.E {
		for j, v := range l.E[i] {
			if v < e {
				e = v
				vdd, vts = l.Vdd[i], l.Vts[j]
				ok = true
			}
		}
	}
	return vdd, vts, e, ok
}

// ExampleProblem_SampleLandscape renders the constrained energy surface
// E*(V_dd, V_ts) of §3's physics discussion as an ASCII heatmap: the
// feasibility wall at low supply ('.' region), the leakage penalty at low
// threshold, and the interior optimum ('@') that Procedure 2's bisection
// homes in on.
func ExampleProblem_SampleLandscape() {
	c, err := netgen.Profile("s298")
	if err != nil {
		fmt.Println(err)
		return
	}
	p, err := NewProblem(Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.5,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	const nVdd, nVts = 16, 24
	ls, err := p.SampleLandscape(nVdd, nVts, DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	// Rows top-to-bottom = high to low Vdd, columns left-to-right = low to
	// high Vts.
	grid := make([][]float64, nVdd)
	for i := 0; i < nVdd; i++ {
		grid[i] = ls.E[nVdd-1-i]
	}
	fmt.Print(heatmap(
		fmt.Sprintf("E*(Vdd, Vt) for s298 at 300 MHz  (rows: Vdd %.1f→%.1f V, cols: Vt %.2f→%.2f V)",
			ls.Vdd[nVdd-1], ls.Vdd[0], ls.Vts[0], ls.Vts[nVts-1]),
		grid, "Vt →", "Vdd ↓"))

	vdd, vts, e, ok := ls.Min()
	if !ok {
		fmt.Println("no feasible grid point")
		return
	}
	fmt.Printf("\ngrid minimum: %s at Vdd=%.2f V, Vt=%.3f V\n", report.Eng(e, "J"), vdd, vts)
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Procedure 2:  %s at Vdd=%.2f V, Vt=%.3f V (%d evaluations)\n",
		report.Eng(res.Energy.Total(), "J"), res.Vdd, res.VtsValues[0], res.Evaluations)
	fmt.Println("\nThe infeasible wall ('.') bounds the low-voltage corner; energy falls toward")
	fmt.Println("it until leakage (low Vt, left edge) pushes back — the §3 balance.")
	// Output:
	// E*(Vdd, Vt) for s298 at 300 MHz  (rows: Vdd 3.3→0.1 V, cols: Vt 0.10→0.70 V)
	// Vdd ↓
	//   | ::---------------------
	//   |:---====================
	//   |-========+++++==========
	//   |=+++++++++++++++++++++++
	//   |++**********************
	//   |*****%%%%%%%%%%%%%%%****
	//   |*%%%%%%%%%%%%%%%%%%%%%%%
	//   |%%%################%%%%%
	//   |####################%...
	//   |#####@@@@@@@######......
	//   |#@@@@@@@@@@@@@..........
	//   |@@@@@@@@@@@.............
	//   |@@@@@@@@................
	//   |@@@@....................
	//   |........................
	//   |........................
	//   +------------------------
	//    Vt →
	//    @ = 3.06e-13 (best)   space = 8.88e-12   . = infeasible
	//
	// grid minimum: 306 fJ at Vdd=0.53 V, Vt=0.178 V
	// Procedure 2:  295 fJ at Vdd=0.40 V, Vt=0.138 V (5543 evaluations)
	//
	// The infeasible wall ('.') bounds the low-voltage corner; energy falls toward
	// it until leakage (low Vt, left edge) pushes back — the §3 balance.
}

func TestSampleLandscapeShape(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	ls, err := p.SampleLandscape(7, 7, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ls.E) != 7 || len(ls.E[0]) != 7 {
		t.Fatalf("grid %dx%d", len(ls.E), len(ls.E[0]))
	}
	total, feas := 0, 0
	for i := range ls.E {
		for _, v := range ls.E[i] {
			total++
			if !math.IsInf(v, 1) {
				feas++
			}
		}
	}
	if frac := float64(feas) / float64(total); frac <= 0 || frac >= 1 {
		t.Errorf("feasible fraction %v should be interior (wall exists)", frac)
	}
	vdd, vts, e, ok := ls.Min()
	if !ok || math.IsInf(e, 1) {
		t.Fatal("no feasible grid point")
	}
	// §3 physics: the grid minimum sits at low supply and low threshold, far
	// from the (VddMax, VtsMax) corner.
	if vdd > 2.0 || vts > 0.45 {
		t.Errorf("grid minimum at (%v, %v), expected low-voltage corner region", vdd, vts)
	}
	// Feasibility is monotone in Vdd at fixed Vts: once feasible, staying
	// feasible as the supply rises.
	for j := range ls.Vts {
		seen := false
		for i := range ls.Vdd {
			feas := !math.IsInf(ls.E[i][j], 1)
			if seen && !feas {
				t.Errorf("feasibility not monotone in Vdd at Vts=%v", ls.Vts[j])
				break
			}
			if feas {
				seen = true
			}
		}
	}
}

func TestSampleLandscapeValidation(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	if _, err := p.SampleLandscape(1, 5, DefaultOptions()); err == nil {
		t.Error("degenerate grid accepted")
	}
}

func TestLandscapeMinNearProcedure2Optimum(t *testing.T) {
	p := problemFor(t, smallCircuit(t), 0.5)
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ls, err := p.SampleLandscape(9, 9, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, _, e, ok := ls.Min()
	if !ok {
		t.Fatal("no feasible grid point")
	}
	// The heuristic must be at least as good as a coarse grid scan.
	if res.Energy.Total() > e*1.2 {
		t.Errorf("Procedure 2 result %v much worse than grid minimum %v", res.Energy.Total(), e)
	}
}

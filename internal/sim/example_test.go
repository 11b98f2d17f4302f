package sim_test

import (
	"fmt"

	"cmosopt/internal/activity"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/report"
	"cmosopt/internal/sim"
	"cmosopt/internal/wiring"
)

// Example_glitch separates the two ways Najm's analytic transition density
// (§4.1), which the optimizer minimizes, differs from real switching on the
// optimized s298 design:
//
//   - it overcounts on reconvergent logic, where correlated fanins and
//     simultaneous input switching break its independence assumption;
//   - it undercounts hazards, the glitches that unequal path delays create
//     and zero-delay analysis cannot see.
//
// It compares three measurements of total switching activity: analytic
// (Najm propagation), zero-delay (Monte-Carlo logic simulation: true
// correlations, no glitches) and timed (event-driven simulation with the
// design's gate delays: true correlations and glitches, minus inertially
// filtered pulses).
func Example_glitch() {
	c, err := netgen.Profile("s298")
	if err != nil {
		fmt.Println(err)
		return
	}
	const act = 0.3
	p, err := core.NewProblem(core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: act,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := p.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}

	in := make(map[int]activity.InputSpec, len(p.C.PIs))
	for _, id := range p.C.PIs {
		in[id] = activity.InputSpec{Prob: 0.5, Density: act}
	}
	const cycles = 30000
	zero, err := activity.MonteCarlo(p.C, in, cycles, 42)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := sim.New(p.C, p.Eval.DelayModel(), res.Assignment)
	if err != nil {
		fmt.Println(err)
		return
	}
	timed, err := s.RandomVectorStats(in, cycles, 1/p.Fc, 42)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Energy-weight each activity measure with the same per-gate switched
	// capacitance so the comparison reads directly in joules.
	weighted := func(density func(i int) float64) float64 {
		total := 0.0
		for i := range p.C.Gates {
			if !p.C.Gates[i].IsLogic() {
				continue
			}
			base := p.Eval.GateEnergy(i, res.Assignment).Dynamic
			if d := p.Act.Density[i]; d > 1e-12 {
				total += base * density(i) / d
			}
		}
		return total
	}
	analyticE := weighted(func(i int) float64 { return p.Act.Density[i] })
	zeroE := weighted(func(i int) float64 { return zero.Density[i] })
	timedE := weighted(func(i int) float64 { return timed[i] })

	fmt.Printf("circuit                  s298 (joint-optimized, %s, input activity %.1f)\n",
		report.Eng(p.Fc, "Hz"), act)
	fmt.Printf("analytic (Najm)          %s/cycle   <- what the optimizer minimizes\n", report.Eng(analyticE, "J"))
	fmt.Printf("zero-delay simulation    %s/cycle   (correlation overcount: %+.1f%%)\n",
		report.Eng(zeroE, "J"), (analyticE/zeroE-1)*100)
	fmt.Printf("timed simulation         %s/cycle   (glitch contribution:   %+.1f%%)\n",
		report.Eng(timedE, "J"), (timedE/zeroE-1)*100)
	fmt.Println("\nThe independence assumption overstates activity on reconvergent logic, while")
	fmt.Println("hazards push the other way; the analytic estimate the paper (and this library)")
	fmt.Println("optimizes against is conservative whenever the first effect dominates.")
	// Output:
	// circuit                  s298 (joint-optimized, 300 MHz, input activity 0.3)
	// analytic (Najm)          131 fJ/cycle   <- what the optimizer minimizes
	// zero-delay simulation    39.8 fJ/cycle   (correlation overcount: +229.7%)
	// timed simulation         49.2 fJ/cycle   (glitch contribution:   +23.4%)
	//
	// The independence assumption overstates activity on reconvergent logic, while
	// hazards push the other way; the analytic estimate the paper (and this library)
	// optimizes against is conservative whenever the first effect dominates.
}

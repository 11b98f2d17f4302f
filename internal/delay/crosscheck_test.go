package delay

import (
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/spice"
	"cmosopt/internal/wiring"
)

// TestAnalyticDelayTracksTransient plays the paper's HSPICE validation role:
// the Appendix A.2 switching-delay expression must track a numerical
// transient of the same gate across the optimizer's whole operating range,
// from full supply down into subthreshold.
func TestAnalyticDelayTracksTransient(t *testing.T) {
	tech := device.Default350()
	wire, err := wiring.New(wiring.Default350(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Single inverter driving the module output.
	b := circuit.NewBuilder("inv")
	in := b.Input("in")
	g := b.Gate(circuit.Not, "g", in)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(c, &tech, wire)
	if err != nil {
		t.Fatal(err)
	}

	const w = 2.0
	points := []struct{ vdd, vts float64 }{
		{3.3, 0.7}, {2.0, 0.5}, {1.0, 0.2}, {0.6, 0.15}, {0.35, 0.3},
	}
	for _, pt := range points {
		a := design.Uniform(c.N(), pt.vdd, pt.vts, w)
		// Analytic model, isolated to its switching component: subtract the
		// interconnect terms by comparing against a transient with the same
		// total load (own parasitic + module load + one wire branch).
		analytic := ev.GateDelayWith(g, a, 0)
		cl := w*tech.CPD + tech.COut + wire.BranchCap()
		sim := &spice.GateSim{Tech: &tech, W: w, CL: cl, Vdd: pt.vdd, Vts: pt.vts, Fanin: 1}
		tr, err := sim.FallDelay()
		if err != nil {
			t.Fatalf("(%v,%v): %v", pt.vdd, pt.vts, err)
		}
		ratio := analytic / tr
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("(%v,%v): analytic %v vs transient %v (ratio %v)", pt.vdd, pt.vts, analytic, tr, ratio)
		}
	}
}

// TestAnalyticDelayOrderingMatchesTransient checks that the two models agree
// on *ordering*: if the analytic model says point A is faster than point B,
// the transient must too — the property the optimizer's comparisons rely on.
func TestAnalyticDelayOrderingMatchesTransient(t *testing.T) {
	tech := device.Default350()
	wire, err := wiring.New(wiring.Default350(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b := circuit.NewBuilder("inv")
	in := b.Input("in")
	g := b.Gate(circuit.Not, "g", in)
	b.Output(g)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(c, &tech, wire)
	if err != nil {
		t.Fatal(err)
	}

	type point struct{ vdd, vts, w float64 }
	pts := []point{
		{3.3, 0.7, 2}, {2.0, 0.3, 2}, {1.0, 0.15, 2}, {1.0, 0.15, 8},
		{0.7, 0.2, 4}, {0.5, 0.25, 4},
	}
	analytic := make([]float64, len(pts))
	transient := make([]float64, len(pts))
	for i, pt := range pts {
		a := design.Uniform(c.N(), pt.vdd, pt.vts, pt.w)
		analytic[i] = ev.GateDelayWith(g, a, 0)
		cl := pt.w*tech.CPD + tech.COut + wire.BranchCap()
		sim := &spice.GateSim{Tech: &tech, W: pt.w, CL: cl, Vdd: pt.vdd, Vts: pt.vts, Fanin: 1}
		tr, err := sim.FallDelay()
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		transient[i] = tr
	}
	for i := range pts {
		for j := range pts {
			// Require agreement only on clear (>20 %) analytic separations.
			if analytic[i] < analytic[j]*0.8 && transient[i] >= transient[j] {
				t.Errorf("ordering disagreement: analytic %v<%v but transient %v>=%v (points %d,%d)",
					analytic[i], analytic[j], transient[i], transient[j], i, j)
			}
		}
	}
}

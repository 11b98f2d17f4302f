package eval

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
)

// wideCircuit returns a netlist whose middle gate has 70 fanins, more than
// the width kernel's per-fanin-count constants cover, so it is a cold slot:
// 70 inputs each drive an inverter, the inverters feed one NAND, and the
// NAND drives three inverters and a primary output.
func wideCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("wide")
	ins := make([]int, 70)
	for i := range ins {
		ins[i] = b.Gate(circuit.Not, fmt.Sprintf("n%d", i), b.Input(fmt.Sprintf("i%d", i)))
	}
	wide := b.Gate(circuit.Nand, "wide", ins...)
	for i := range 3 {
		b.Output(b.Gate(circuit.Not, fmt.Sprintf("o%d", i), wide))
	}
	b.Output(wide)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// WidthDelays re-times a width solve on its table in one sweep in solve
// order. After SizeWidths its delays must be bitwise those of the reference
// evaluator (delay.Evaluator) and those a twin engine's Delays returns for
// the same widths, which gathers them, runs the same loop and scatters the
// delays into gate-ID order. Each of the two sweeps must bill one full
// sweep, one gate-delay call and one coefficient lookup per logic gate, no
// width probe, and one eval.full_sweep_ns observation. Covered: two paper
// circuits, a 2000-gate netlist and a gate with 70 fanins (a cold slot), at
// uniform voltages, with two thresholds and with per-gate supplies, at five
// points including one where multi-fanin gates stall, after four passes,
// one pass (whose settled delays the fanouts' later widening leaves stale)
// and no pass (the sweep then prices the voltage pairs itself).
func TestWidthDelaysMatchDelays(t *testing.T) {
	gen, err := netgen.Generate(netgen.Config{Name: "gen2k", Gates: 2000, Depth: 30, PIs: 60, POs: 40}, 5)
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*circuit.Circuit{gen, wideCircuit(t)}
	for _, name := range []string{"s298", "s510"} {
		c, err := netgen.Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = c.Combinational(); err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	// At (0.1 V, 0.2 V) a gate with two or more fanins stalls.
	points := [][2]float64{{0.5, 0.17}, {1.0, 0.15}, {0.3, 0.1}, {2.0, 0.4}, {0.1, 0.2}}
	runs := []struct{ m, passes int }{{12, 4}, {7, 1}, {12, 0}}
	var compared, infinite, coldGates, stale int
	for _, c := range circuits {
		eng := newEngine(t, c)
		twin := eng.Clone()
		regE, regT := obs.NewRegistry(), obs.NewRegistry()
		eng.AttachObs(regE)
		twin.AttachObs(regT)
		sweeps := func(r *obs.Registry) int64 { return r.Histogram("eval.full_sweep_ns").Snapshot().Count }
		dm := eng.DelayModel()
		s, s2 := eng.WidthScratch(), twin.WidthScratch()
		gates := int64(len(s.Target))
		// billed checks that one sweep on e billed what a full sweep bills.
		billed := func(where string, e *Engine, m0 Metrics, r *obs.Registry, h0 int64) {
			t.Helper()
			m := *e.Metrics()
			if got := m.FullDelaySweeps - m0.FullDelaySweeps; got != 1 {
				t.Errorf("%s: %d full sweeps billed, want 1", where, got)
			}
			if got := m.GateDelayCalls - m0.GateDelayCalls; got != gates {
				t.Errorf("%s: %d gate-delay calls for %d logic gates, want one each", where, got, gates)
			}
			if got := m.CoeffHits + m.CoeffMisses - m0.CoeffHits - m0.CoeffMisses; got != gates {
				t.Errorf("%s: %d coefficient lookups for %d logic gates, want one each", where, got, gates)
			}
			if got := m.WidthProbes - m0.WidthProbes; got != 0 {
				t.Errorf("%s: %d width probes billed, want 0", where, got)
			}
			if got := sweeps(r) - h0; got != 1 {
				t.Errorf("%s: %d sweep-latency observations, want 1", where, got)
			}
		}
		for _, v := range sweepVariants {
			for _, pt := range points {
				for _, run := range runs {
					where := fmt.Sprintf("%s %s (%v V, %v V) M=%d passes=%d", c.Name, v.name, pt[0], pt[1], run.m, run.passes)
					a := v.make(c.N(), pt[0], pt[1], 1)
					b := a.Clone()
					// Targets from 0.5× to 1.1× each gate's delay at
					// width 1: some searches bisect, some end at WMin
					// and some miss.
					d0 := dm.Delays(a)
					for i := range s.Target {
						tg := d0[s.ID(i)] * (0.5 + 0.1*float64(i%7))
						s.Target[i], s2.Target[i] = tg, tg
					}
					eng.SizeWidths(s, a, 1, 100, run.m, run.passes)
					twin.SizeWidths(s2, b, 1, 100, run.m, run.passes)
					if *eng.Metrics() != *twin.Metrics() {
						t.Fatalf("%s: twin engines' metrics diverged before the sweep", where)
					}
					settled := slices.Clone(s.Delay)
					m0, m0t := *eng.Metrics(), *twin.Metrics()
					h0, h0t := sweeps(regE), sweeps(regT)
					eng.WidthDelays(s, a)
					want := twin.Delays(b)
					ref := dm.Delays(a)
					for i, d := range s.Delay {
						id := s.ID(i)
						if math.Float64bits(d) != math.Float64bits(want[id]) || math.Float64bits(d) != math.Float64bits(ref[id]) {
							t.Fatalf("%s: gate %d delay %v, Delays %v, reference %v", where, id, d, want[id], ref[id])
						}
						compared++
						if math.IsInf(d, 1) {
							infinite++
						}
						if s.t.slots[i].flags&slotCold != 0 {
							coldGates++
						}
						if run.passes > 0 && math.Float64bits(d) != math.Float64bits(settled[i]) {
							stale++
						}
					}
					billed(where+" WidthDelays", eng, m0, regE, h0)
					billed(where+" Delays", twin, m0t, regT, h0t)
				}
			}
		}
	}
	t.Logf("%d delays compared: %d +Inf, %d of cold slots, %d differing from the last pass's settled delay", compared, infinite, coldGates, stale)
	if infinite == 0 || infinite == compared || coldGates == 0 || stale == 0 {
		t.Errorf("the comparison needs +Inf and finite delays, cold slots and stale settled delays: %d, %d, %d, %d", infinite, compared-infinite, coldGates, stale)
	}
}

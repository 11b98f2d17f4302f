package delay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cmosopt/internal/circuit"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// The prepared form must reproduce GateDelayAt bit for bit: Procedure 2's
// width search runs on it, and any rounding difference would move a width
// and with it every output byte. One Prepared is reused across all gates and
// operating points, as the engine reuses its probe.
func TestPreparedAtBitwiseEqualsGateDelayAtProperty(t *testing.T) {
	c, err := netgen.Generate(netgen.Config{Name: "prep", Gates: 80, Depth: 7, PIs: 6, POs: 5}, 21)
	if err != nil {
		t.Fatal(err)
	}
	tech := device.Default350()
	wire, err := wiring.New(wiring.Default350(), c.NumLogic())
	if err != nil {
		t.Fatal(err)
	}
	wire.SampleNets(c.N(), 21) // per-net R, C and flight time
	ev, err := New(c, &tech, wire)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := c.CSR()
	if err != nil {
		t.Fatal(err)
	}

	p := ev.NewPrepared()
	var po, nonPO, single, multi, stalled, inputs int
	check := func(id int, a *design.Assignment, maxIn float64, ws []float64) bool {
		k := ev.CoeffsAt(a.VddAt(id), a.Vts[id])
		ev.Prepare(&p, id, a, maxIn, k)
		for _, w := range ws {
			got := p.At(w)
			want := ev.GateDelayAt(id, a, w, -1, 0, maxIn, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("gate %d (fanin %d, PO %v) w=%v maxIn=%v vdd=%v vts=%v: At %v (%#x), GateDelayAt %v (%#x)",
					id, c.Gates[id].NumFanin(), cs.IsPO[id], w, maxIn, a.VddAt(id), a.Vts[id],
					got, math.Float64bits(got), want, math.Float64bits(want))
				return false
			}
		}
		switch g := c.Gate(id); {
		case !g.IsLogic():
			inputs++
		case math.IsInf(p.At(ws[0]), 1):
			stalled++
		default:
			if cs.IsPO[id] {
				po++
			} else {
				nonPO++
			}
			if g.NumFanin() > 1 {
				multi++
			} else {
				single++
			}
		}
		return true
	}

	trial := 0
	f := func(seed int64, perGateVdd bool) bool {
		trial++
		rng := rand.New(rand.NewSource(seed))
		uni := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
		a := design.Uniform(c.N(), uni(tech.VddMin, tech.VddMax), 0, tech.WMin)
		if perGateVdd {
			a.VddPer = make([]float64, c.N())
		}
		for i := range c.Gates {
			a.Vts[i] = uni(tech.VtsMin, tech.VtsMax)
			a.W[i] = uni(tech.WMin, tech.WMax)
			if perGateVdd {
				a.VddPer[i] = uni(tech.VddMin, tech.VddMax)
			}
		}
		// Every fourth trial's supplies lie far below the legal range: they
		// stall multi-input gates (drive ≤ 0, +Inf delay) while inverters
		// may still switch.
		if trial%4 == 0 {
			for i := range c.Gates {
				if a.VddPer != nil {
					a.VddPer[i] = uni(0.01, 0.05)
				}
			}
			a.Vdd = uni(0.01, 0.05)
		}
		for id := range c.Gates {
			ws := []float64{tech.WMin, tech.WMax, uni(tech.WMin, tech.WMax), a.W[id]}
			if !check(id, a, uni(0, 2e-9), ws) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"PO": po, "non-PO": nonPO, "f_ii = 1": single, "f_ii > 1": multi, "drive ≤ 0": stalled, "input": inputs} {
		if n == 0 {
			t.Errorf("no %s gate was checked", name)
		}
	}
}

// Prepare fills the scratch NewPrepared sized for the widest fanout in
// place: a width search never allocates.
func TestPrepareDoesNotAllocate(t *testing.T) {
	b := circuit.NewBuilder("hub")
	in := b.Input("a")
	hub := b.Gate(circuit.Not, "hub", in)
	for i := 0; i < 9; i++ {
		b.Output(b.Gate(circuit.Not, "o"+string(rune('0'+i)), hub))
	}
	b.Output(hub) // the PO load goes after the nine fanouts
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ev := evalFor(t, c)
	a := design.Uniform(c.N(), 1.5, 0.3, 2)
	id := c.GateByName("hub").ID
	k := ev.CoeffsAt(1.5, 0.3)
	p := ev.NewPrepared()
	allocs := testing.AllocsPerRun(10, func() {
		ev.Prepare(&p, id, a, 1e-10, k)
		_ = p.At(3)
	})
	if allocs != 0 {
		t.Errorf("Prepare + At allocated %v times per run, want 0", allocs)
	}
	if got, want := p.At(3), ev.GateDelayAt(id, a, 3, -1, 0, 1e-10, k); got != want {
		t.Errorf("hub gate: At %v, GateDelayAt %v", got, want)
	}
}

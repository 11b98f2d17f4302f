// ECO example: after a netlist edit, re-optimizing from scratch wastes the
// previous solution. This example optimizes the s298-profile benchmark,
// "edits" it by grafting a small observation cone onto two outputs, and then
// warm-starts the new optimization from the old design — most gates keep
// their sizing and only the widths are re-solved.
//
//	go run ./examples/eco
package main

import (
	"fmt"
	"log"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

func main() {
	log.SetFlags(0)

	base, err := netgen.Profile("s298")
	if err != nil {
		log.Fatal(err)
	}
	spec := core.Spec{
		Circuit:      base,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.5,
	}
	p1, err := core.NewProblem(spec)
	if err != nil {
		log.Fatal(err)
	}
	orig, err := p1.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original   %s in %d evaluations\n",
		report.Eng(orig.Energy.Total(), "J"), orig.Evaluations)

	// The "edit": an XOR observer across the first two outputs plus an
	// output buffer — the kind of late probe-logic change an ECO carries.
	edited := graftObserver(p1.C)
	spec.Circuit = edited
	p2, err := core.NewProblem(spec)
	if err != nil {
		log.Fatal(err)
	}
	eco, reused, fast, err := p2.WarmStart(p1.C, orig.Assignment, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after edit %s in %d evaluations (reused %d/%d sizings, warm start: %v)\n",
		report.Eng(eco.Energy.Total(), "J"), eco.Evaluations, reused, p1.C.NumLogic(), fast)
	full, err := p2.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full rerun %s in %d evaluations\n",
		report.Eng(full.Energy.Total(), "J"), full.Evaluations)
	fmt.Printf("\nThe warm start closes the ECO in ~%.0fx fewer circuit evaluations for a\n",
		float64(full.Evaluations)/float64(max(eco.Evaluations, 1)))
	fmt.Printf("%.0f%% energy premium over the full rerun.\n",
		(eco.Energy.Total()/full.Energy.Total()-1)*100)
}

func graftObserver(c *circuit.Circuit) *circuit.Circuit {
	b := circuit.NewBuilder(c.Name + "-eco")
	cs, err := c.CSR()
	if err != nil {
		log.Fatal(err)
	}
	newID := make([]int, c.N())
	for _, id := range cs.Order {
		g := &c.Gates[id]
		if g.Type == circuit.Input {
			newID[id] = b.Input(g.Name)
			continue
		}
		fanin := make([]int, len(g.Fanin))
		for i, f := range g.Fanin {
			fanin[i] = newID[f]
		}
		newID[id] = b.Gate(g.Type, g.Name, fanin...)
	}
	for _, po := range c.POs {
		b.Output(newID[po])
	}
	x := b.Gate(circuit.Xor, "eco_x", newID[c.POs[0]], newID[c.POs[1]])
	y := b.Gate(circuit.Buf, "eco_y", x)
	b.Output(y)
	nc, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return nc
}

package core_test

import (
	"fmt"

	"cmosopt/internal/circuit"
	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/report"
	"cmosopt/internal/wiring"
)

// Example runs the paper's full flow on the genuine ISCAS'89 s27 netlist:
// cut its flip-flops to get the register-to-register combinational network
// (NewProblem does the cut itself, so the raw netlist goes in), optimize it
// at a 300 MHz target with the fixed-Vt baseline and jointly in supply,
// threshold and widths, and name the joint design's critical path. To run
// the same flow on a .bench file of your own, use lowpower -bench.
func Example() {
	c := netgen.S27()
	fmt.Println("raw netlist:     ", circuit.ComputeStats(c))
	comb, err := c.Combinational()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("after DFF cut:   ", circuit.ComputeStats(comb))

	p, err := core.NewProblem(core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.3,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	var joint *core.Result
	for _, mode := range []string{"baseline", "joint"} {
		var res *core.Result
		if mode == "baseline" {
			res, err = p.OptimizeBaseline(core.DefaultOptions())
		} else {
			res, err = p.OptimizeJoint(core.DefaultOptions())
			joint = res
		}
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-8s: total %-9s (static %-9s dynamic %-9s) Vdd %-7s Vt %-7s delay %s\n",
			mode,
			report.Eng(res.Energy.Total(), "J"),
			report.Eng(res.Energy.Static, "J"),
			report.Eng(res.Energy.Dynamic, "J"),
			report.Eng(res.Vdd, "V"),
			report.Eng(res.VtsValues[0], "V"),
			report.Eng(res.CriticalDelay, "s"))
	}

	path, delay := p.Eval.DelayModel().CriticalPath(joint.Assignment)
	fmt.Printf("critical path (%s):", report.Eng(delay, "s"))
	for _, id := range path {
		fmt.Printf(" %s", p.C.Gate(id).Name)
	}
	fmt.Println()
	// Output:
	// raw netlist:      s27: gates=10 depth=0 in=4 out=1 dff=3 maxFo=3 [AND:1 DFF:3 NAND:2 NOR:3 NOT:2 OR:2]
	// after DFF cut:    s27: gates=10 depth=6 in=7 out=4 dff=0 maxFo=2 [AND:1 NAND:2 NOR:3 NOT:2 OR:2]
	// baseline: total 14.9 fJ   (static 0.89 aJ   dynamic 14.9 fJ  ) Vdd 1 V     Vt 700 mV  delay 2.96 ns
	// joint   : total 3.16 fJ   (static 1.1 fJ    dynamic 2.07 fJ  ) Vdd 388 mV  Vt 260 mV  delay 2.76 ns
	// critical path (2.76 ns): G0 G14 G8 G16 G9 G11 G10
}

// Example_quickstart builds a small network gate by gate with the circuit
// Builder, then runs the paper's joint (Vdd, Vt, widths) optimization
// against the conventional fixed-Vt baseline and prints the energy
// breakdown.
func Example_quickstart() {
	// A 4-bit ripple-carry adder: a realistic little random-logic network
	// with reconvergence and a long carry chain.
	b := circuit.NewBuilder("adder4")
	var carry int
	for i := 0; i < 4; i++ {
		ai := b.Input(fmt.Sprintf("a%d", i))
		bi := b.Input(fmt.Sprintf("b%d", i))
		axb := b.Gate(circuit.Xor, fmt.Sprintf("axb%d", i), ai, bi)
		if i == 0 {
			sum := b.Gate(circuit.Buf, "sum0", axb)
			b.Output(sum)
			carry = b.Gate(circuit.And, "c0", ai, bi)
			continue
		}
		sum := b.Gate(circuit.Xor, fmt.Sprintf("sum%d", i), axb, carry)
		b.Output(sum)
		g1 := b.Gate(circuit.And, fmt.Sprintf("g1_%d", i), axb, carry)
		g2 := b.Gate(circuit.And, fmt.Sprintf("g2_%d", i), ai, bi)
		carry = b.Gate(circuit.Or, fmt.Sprintf("c%d", i), g1, g2)
	}
	b.Output(carry)
	c, err := b.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(circuit.ComputeStats(c))

	// The paper's "Given": clock target, technology, activity profile.
	p, err := core.NewProblem(core.Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           200e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.3,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	base, err := p.OptimizeBaseline(core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}
	joint, err := p.OptimizeJoint(core.DefaultOptions())
	if err != nil {
		fmt.Println(err)
		return
	}

	show := func(name string, r *core.Result) {
		fmt.Printf("%-9s Vdd=%-8s Vt=%-8s  static=%-10s dynamic=%-10s total=%-10s delay=%s\n",
			name,
			report.Eng(r.Vdd, "V"), report.Eng(r.VtsValues[0], "V"),
			report.Eng(r.Energy.Static, "J"), report.Eng(r.Energy.Dynamic, "J"),
			report.Eng(r.Energy.Total(), "J"), report.Eng(r.CriticalDelay, "s"))
	}
	show("baseline", base)
	show("joint", joint)
	fmt.Printf("joint optimization saves %.1fx at the same %s clock\n",
		joint.Savings(base), report.Eng(p.Fc, "Hz"))
	// Output:
	// adder4: gates=18 depth=7 in=8 out=5 dff=0 maxFo=2 [AND:7 BUFF:1 OR:3 XOR:7]
	// baseline  Vdd=925 mV   Vt=700 mV    static=1.63 aJ    dynamic=33.8 fJ    total=33.8 fJ    delay=4.04 ns
	// joint     Vdd=300 mV   Vt=236 mV    static=3.21 fJ    dynamic=3.72 fJ    total=6.93 fJ    delay=4.21 ns
	// joint optimization saves 4.9x at the same 200 MHz clock
}

package timing_test

import (
	"fmt"

	"cmosopt/internal/circuit"
	"cmosopt/internal/timing"
)

func ExampleAssignBudgets() {
	// in → g1 (fans out to g2 and g3, both primary outputs): Procedure 1
	// splits the 3 ns cycle budget along the critical path in proportion to
	// effective fanouts (g1 drives 2 gates + intrinsic = 3; g2 drives the
	// module load + intrinsic = 2).
	b := circuit.NewBuilder("fan")
	in := b.Input("in")
	g1 := b.Gate(circuit.Not, "g1", in)
	g2 := b.Gate(circuit.Not, "g2", g1)
	g3 := b.Gate(circuit.Not, "g3", g1)
	b.Output(g2)
	b.Output(g3)
	c, err := b.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	a, err := timing.NewAnalysis(c)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := timing.AssignBudgets(a, 3e-9)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("g1: %.2f ns, g2: %.2f ns\n", res.TMax[g1]*1e9, res.TMax[g2]*1e9)
	// Output: g1: 1.80 ns, g2: 1.20 ns
}

package optimize_test

import (
	"fmt"

	"cmosopt/internal/optimize"
)

func ExampleGoldenSection() {
	x, fx := optimize.GoldenSection(func(x float64) float64 {
		return (x - 2) * (x - 2)
	}, optimize.Range{Lo: 0, Hi: 10}, 1e-9, 200)
	fmt.Printf("x=%.3f f<1e-15: %v\n", x, fx < 1e-15)
	// Output: x=2.000 f<1e-15: true
}

func ExampleRange() {
	r := optimize.Range{Lo: 0.1, Hi: 3.3}
	fmt.Printf("mid=%.2f lower=[%.2f,%.2f] higher=[%.2f,%.2f]\n",
		r.Mid(), r.Lower().Lo, r.Lower().Hi, r.Higher().Lo, r.Higher().Hi)
	// Output: mid=1.70 lower=[0.10,1.70] higher=[1.70,3.30]
}

package floats

import (
	"math"
	"testing"
)

func TestEq(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1.0, 1.0, true},
		{1.0, 1.0 + 1e-15, true},                 // well inside RelEps
		{1.0, 1.0 + 1e-9, false},                 // outside RelEps
		{1e-12, 1e-12 * (1 + 1e-15), true},       // relative test scales down
		{1e-12, 2e-12, false},                    // small but genuinely different
		{0, 1e-301, true},                        // absolute floor near zero
		{0, 1e-12, false},                        // zero vs. a real small value
		{-3.5e-10, -3.5e-10 * (1 + 1e-14), true}, /* delays */
		{math.Inf(1), math.Inf(1), true},
		{math.Inf(1), math.Inf(-1), false},
		{math.NaN(), math.NaN(), false}, // NaN matches == semantics
		{math.NaN(), 1.0, false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Eq(c.b, c.a); got != c.want {
			t.Errorf("Eq(%g, %g) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestEqTol(t *testing.T) {
	if !EqTol(100, 101, 0.02) {
		t.Error("EqTol(100, 101, 2%) should hold")
	}
	if EqTol(100, 103, 0.02) {
		t.Error("EqTol(100, 103, 2%) should not hold")
	}
}

func TestZero(t *testing.T) {
	if !Zero(0) || !Zero(1e-301) || !Zero(-1e-301) {
		t.Error("Zero should accept exact and denormal-scale zeros")
	}
	if Zero(1e-15) {
		t.Error("Zero(1e-15) should be false: that is a representable energy scale")
	}
}

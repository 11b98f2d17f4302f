// Package optimize is the small numerical-optimization library backing the
// device-circuit optimizer: interval bisection in the style of the paper's
// Procedure 2 (MID/LOWER/HIGHER range refinement), golden-section scalar
// minimization, and a generic multi-pass simulated-annealing engine used by
// the paper's §5 comparison. Only the standard library is used.
package optimize

import "fmt"

// Range is a closed interval [Lo, Hi] supporting the MID / LOWER / HIGHER
// refinement of the paper's Procedure 2.
type Range struct{ Lo, Hi float64 }

// Validate reports an error when the interval is inverted.
func (r Range) Validate() error {
	if !(r.Lo <= r.Hi) { // also catches NaN
		return fmt.Errorf("optimize: invalid range [%v,%v]", r.Lo, r.Hi)
	}
	return nil
}

// Mid returns the interval's center, the paper's MID(XRange).
func (r Range) Mid() float64 { return r.Lo + (r.Hi-r.Lo)/2 }

// Lower returns the lower half [Lo, Mid], the paper's LOWER(XRange).
func (r Range) Lower() Range { return Range{r.Lo, r.Mid()} }

// Higher returns the upper half [Mid, Hi], the paper's HIGHER(XRange).
func (r Range) Higher() Range { return Range{r.Mid(), r.Hi} }

// Width returns Hi − Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// Clamp projects x into the interval.
func (r Range) Clamp(x float64) float64 {
	if x < r.Lo {
		return r.Lo
	}
	if x > r.Hi {
		return r.Hi
	}
	return x
}

// Contains reports whether x lies in the closed interval.
func (r Range) Contains(x float64) bool { return x >= r.Lo && x <= r.Hi }

// Linspace returns n evenly spaced points from Lo to Hi inclusive (n ≥ 2).
func (r Range) Linspace(n int) []float64 {
	if n < 2 {
		return []float64{r.Mid()}
	}
	out := make([]float64, n)
	step := r.Width() / float64(n-1)
	for i := range out {
		out[i] = r.Lo + float64(i)*step
	}
	out[n-1] = r.Hi
	return out
}

// Package floats is the shared epsilon-comparison helper for floating-point
// energies, delays and voltages. The cmosvet floateq analyzer
// (internal/analysis) forbids raw ==/!= between float variables in bisection
// and convergence code and steers every such comparison here, so the
// tolerance convention lives in exactly one place.
//
// Eq uses a relative epsilon scaled to the larger magnitude with an absolute
// floor near zero. The defaults are far below any physical resolution the
// Appendix-A models produce (delays are O(1e-10) s, energies O(1e-15) J with
// ~1e-3 relative model fidelity) yet far above accumulated float64 rounding,
// so Eq answers "did the iteration stop moving" without ever confusing two
// genuinely different operating points.
//
// MaxNonNeg, the branch-free running maximum of Procedure 2's width search,
// lives here too: like Eq, it is a float comparison with one convention.
package floats

import "math"

const (
	// RelEps is the default relative tolerance of Eq.
	RelEps = 1e-12
	// AbsEps is the absolute floor of Eq for comparisons against values
	// whose magnitude underflows the relative test (e.g. exact zero).
	AbsEps = 1e-300
)

// Eq reports whether a and b are equal within the package's default
// tolerance: exactly equal, or within RelEps of the larger magnitude, or
// both within AbsEps of zero.
func Eq(a, b float64) bool {
	return EqTol(a, b, RelEps)
}

// EqTol reports whether a and b are equal within relative tolerance rel
// (with the AbsEps floor near zero). NaN compares unequal to everything,
// matching == semantics.
func EqTol(a, b, rel float64) bool {
	if a == b { //cmosvet:allow floateq — this is the helper the analyzer steers to
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false // distinct infinities (or inf vs finite) are never ε-close
	}
	d := math.Abs(a - b)
	if d <= AbsEps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

// Zero reports whether x is exactly zero or within AbsEps of it.
func Zero(x float64) bool { return math.Abs(x) <= AbsEps }

// infBits is the bit pattern of +Inf, the largest non-negative non-NaN.
const infBits = 0x7ff0000000000000

// MaxNonNeg returns the running maximum m updated by x: the result of
// `if x > m { m = x }`, bit for bit, for any x and any m that is +0,
// positive or +Inf.
//
// It compares bit patterns: non-negative doubles from +0 to +Inf order as
// their bits do as int64. A negative x, −0 or a NaN with the sign bit set
// reads as a negative integer and is never chosen, as x > m is false for
// it; a NaN with the sign bit clear lies above +Inf and is clamped to 0,
// so it is never chosen either. Ties keep m. Both selections compile to
// conditional moves, so a running maximum over data-dependent values pays
// no mispredicted branch.
func MaxNonNeg(m, x float64) float64 {
	mb, xb := int64(math.Float64bits(m)), int64(math.Float64bits(x))
	if xb > infBits {
		xb = 0
	}
	if xb > mb {
		mb = xb
	}
	return math.Float64frombits(uint64(mb))
}

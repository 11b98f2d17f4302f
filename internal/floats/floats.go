// Package floats holds the float comparisons shared across the optimizer:
// MaxNonNeg, the branch-free running maximum of Procedure 2's width search.
package floats

import "math"

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

package optimize

const neutral = 1.0

// Sentinels compares against compile-time constants: the "knob is unset"
// convention on assigned (not computed) values is deliberate and exempt.
func Sentinels(fixedVt, factor float64) bool {
	if fixedVt != 0 { // ok: constant sentinel
		return true
	}
	if factor == neutral { // ok: constant sentinel
		return true
	}
	return false
}

// Ints are exact: integer equality is not flagged.
func Ints(a, b int) bool { return a == b }

// Deliberate carries the documented suppression.
func Deliberate(a, b float64) bool {
	//cmosvet:allow floateq — exact short-circuit keeps incremental and full paths bit-identical
	return a == b
}

// Tolerant is the steered-to pattern: an explicit tolerance.
func Tolerant(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

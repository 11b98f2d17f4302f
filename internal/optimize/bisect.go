package optimize

// MinSatisfying finds the approximately smallest x in r for which pred(x) is
// true, assuming pred is monotone non-decreasing in x (false below some
// boundary, true above). It performs the given number of bisection steps.
// The second result is false when even r.Hi fails the predicate; the first
// result is then r.Hi. When r.Lo already satisfies the predicate it returns
// r.Lo. The returned x always satisfies pred (when ok).
func MinSatisfying(r Range, steps int, pred func(float64) bool) (float64, bool) {
	if !pred(r.Hi) {
		return r.Hi, false
	}
	if pred(r.Lo) {
		return r.Lo, true
	}
	lo, hi := r.Lo, r.Hi // invariant: pred(lo) = false, pred(hi) = true
	for i := 0; i < steps; i++ {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

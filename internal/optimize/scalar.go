package optimize

const invPhi = 0.6180339887498949 // (√5 − 1)/2

// GoldenSection minimizes a unimodal f on r to within tol (interval width) or
// maxIter iterations, whichever comes first. It returns the best abscissa and
// value found. For non-unimodal f it still converges to a local minimum.
func GoldenSection(f func(float64) float64, r Range, tol float64, maxIter int) (x, fx float64) {
	a, b := r.Lo, r.Hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < maxIter && (b-a) > tol; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	if fc < fd {
		return c, fc
	}
	return d, fd
}

package core

// scaled allocates on the annotated hot path.
//
//cmosvet:hotpath
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

var _ = scaled

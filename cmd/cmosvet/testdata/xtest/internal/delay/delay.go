// Package delay stands in for the model package whose evaluator
// constructors evalroute reserves for the engine.
package delay

// Evaluator is the model evaluator.
type Evaluator struct{}

// New constructs an evaluator.
func New() *Evaluator { return &Evaluator{} }

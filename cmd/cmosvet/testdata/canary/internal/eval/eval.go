// Package eval stands in for the engine whose full-circuit evaluations make
// a loop a candidate loop to ctxpoll.
package eval

// Engine is the evaluation engine.
type Engine struct{ n int }

// CriticalDelay is a full-circuit evaluation.
func (e *Engine) CriticalDelay(v float64) float64 { return v * float64(e.n) }

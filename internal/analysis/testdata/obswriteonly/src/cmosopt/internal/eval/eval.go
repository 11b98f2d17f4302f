// Package eval is a stub engine for analyzer fixtures.
package eval

// Engine is the unified evaluation engine stub.
type Engine struct{}

// Delay is a stand-in evaluation method.
func (e *Engine) Delay() float64 { return 1 }

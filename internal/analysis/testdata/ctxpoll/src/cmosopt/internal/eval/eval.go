// Package eval (fixture): the engine surface the ctxpoll analyzer
// recognizes — full-evaluation methods versus per-gate probes.
package eval

// Engine stubs the unified evaluation engine.
type Engine struct{ n int }

// CriticalDelay is a full-circuit evaluation.
func (e *Engine) CriticalDelay(v float64) float64 { return v * float64(e.n) }

// Energy is a full-circuit evaluation.
func (e *Engine) Energy(v float64) float64 { return v * v }

// ProbeWidth is a per-gate probe — deliberately not "evaluation".
func (e *Engine) ProbeWidth(v float64) float64 { return v }

// SizeWidths runs width passes — deliberately not "evaluation".
func (e *Engine) SizeWidths(v float64) float64 { return v / 2 }

// WidthDelays re-times a width solve's gates: a full-circuit evaluation.
func (e *Engine) WidthDelays(v float64) float64 { return v * float64(e.n) }

// Package badread reads instrumentation state from algorithm code: the
// positive cases of the obswriteonly analyzer.
package badread

import (
	"cmosopt/internal/eval"
	"cmosopt/internal/obs"
)

// Steer consults obs state in control flow — exactly what the write-only
// invariant forbids.
func Steer(reg *obs.Registry, e *eval.Engine) float64 {
	c := reg.Counter("eval.gate_delay_calls")
	c.Add(1)             // ok: writes are always allowed
	if c.Value() > 100 { // want `obs.Counter.Value reads instrumentation state`
		return 0
	}
	s := reg.Snapshot() // want `obs.Registry.Snapshot reads instrumentation state`
	if s.WallNS > 1e9 {
		return 0
	}
	_ = reg.Wall() // want `obs.Registry.Wall reads instrumentation state`
	return e.Delay()
}

// Histo reads a histogram snapshot.
func Histo(h *obs.Histogram) int64 {
	h.Observe(3)              // ok: write
	return h.Snapshot().Count // want `obs.Histogram.Snapshot reads instrumentation state`
}

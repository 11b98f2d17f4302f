// Package design holds the optimization variables of the paper's problem
// statement: one supply voltage for the module, a threshold voltage per gate
// (a single shared value in the practical n_v = 1 case), and a channel-width
// multiplier per gate.
package design

import (
	"fmt"
	"math"

	"cmosopt/internal/device"
)

// Assignment is one candidate design point. Vts and W are indexed by gate ID;
// entries for Input gates are present but ignored by the models.
//
// VddPer optionally gives each gate its own supply (the paper's "more than
// one power supply voltage if desired", §4); nil means the single global Vdd
// of the practical case. Use VddAt to read the effective supply of a gate.
type Assignment struct {
	Vdd    float64
	VddPer []float64
	Vts    []float64
	W      []float64 // channel-width multiplier
}

// VddAt returns the supply voltage of gate id.
func (a *Assignment) VddAt(id int) float64 {
	if a.VddPer != nil {
		return a.VddPer[id]
	}
	return a.Vdd
}

// Uniform returns an assignment with the same threshold and width on all n
// gates.
func Uniform(n int, vdd, vts, w float64) *Assignment {
	a := &Assignment{
		Vdd: vdd,
		Vts: make([]float64, n),
		W:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a.Vts[i] = vts
		a.W[i] = w
	}
	return a
}

// Clone returns an independent deep copy.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		Vdd: a.Vdd,
		Vts: append([]float64(nil), a.Vts...),
		W:   append([]float64(nil), a.W...),
	}
	if a.VddPer != nil {
		c.VddPer = append([]float64(nil), a.VddPer...)
	}
	return c
}

// SetVts overwrites every gate's threshold with one value.
func (a *Assignment) SetVts(vts float64) {
	for i := range a.Vts {
		a.Vts[i] = vts
	}
}

// Validate checks the assignment against the circuit size and the
// technology's legal ranges.
func (a *Assignment) Validate(t *device.Tech, n int) error {
	if len(a.Vts) != n || len(a.W) != n {
		return fmt.Errorf("design: assignment sized for %d/%d gates, circuit has %d", len(a.Vts), len(a.W), n)
	}
	if math.IsNaN(a.Vdd) || a.Vdd < t.VddMin || a.Vdd > t.VddMax {
		return fmt.Errorf("design: Vdd %v outside [%v,%v]", a.Vdd, t.VddMin, t.VddMax)
	}
	for i := range a.Vts {
		if math.IsNaN(a.Vts[i]) || a.Vts[i] < t.VtsMin || a.Vts[i] > t.VtsMax {
			return fmt.Errorf("design: gate %d Vts %v outside [%v,%v]", i, a.Vts[i], t.VtsMin, t.VtsMax)
		}
		if math.IsNaN(a.W[i]) || a.W[i] < t.WMin || a.W[i] > t.WMax {
			return fmt.Errorf("design: gate %d width %v outside [%v,%v]", i, a.W[i], t.WMin, t.WMax)
		}
	}
	return nil
}

package eval

import "cmosopt/internal/circuit"

// SetWidth is the width edit of internal/eval/incremental.go with a
// make+copy of the edited gate's fanins. It allocates on every edit the
// sensitivity sizer makes and changes no result, and no test counts the
// incremental engine's allocations: go test ./... passes with this mutant.
//
//cmosvet:hotpath
func (e *Engine) SetWidth(id int, w float64) {
	a := e.bound
	if a.W[id] == w {
		return
	}
	a.W[id] = w
	e.met.IncrementalEdits++
	e.push(id)
	fanins := make([]int32, len(e.cs.Fanins(int32(id)))) // want `make in hotpath function SetWidth allocates`
	copy(fanins, e.cs.Fanins(int32(id)))
	for _, f := range fanins {
		if e.cs.IsLogic[f] {
			e.push(int(f))
		}
	}
	e.propagate()
}

// Engine holds what SetWidth touches of the real engine.
type Engine struct {
	bound *assignment
	met   metrics
	cs    *circuit.CSR
	dirty []int
}

type assignment struct{ W []float64 }

type metrics struct{ IncrementalEdits int64 }

//cmosvet:hotpath
func (e *Engine) push(id int) { e.dirty = append(e.dirty, id) }

//cmosvet:hotpath
func (e *Engine) propagate() { e.dirty = e.dirty[:0] }

// Package circuit (fixture): cross-package fact sources for hotalloc.
package circuit

// CSR mirrors the real compact adjacency view.
type CSR struct {
	Order      []int32
	LevelStart []int32
	FaninStart []int32
	FaninList  []int32
	IsLogic    []bool
}

// Fanins returns a gate's fanin ids: a subslice, allocation-free.
//
//cmosvet:hotpath
func (s *CSR) Fanins(id int32) []int32 {
	return s.FaninList[s.FaninStart[id]:s.FaninStart[id+1]]
}

// LevelGates is hotpath-annotated: its own body is verified here, and
// hotpath callers elsewhere may call it.
//
//cmosvet:hotpath
func (s *CSR) LevelGates(l int) []int32 {
	return s.Order[s.LevelStart[l]:s.LevelStart[l+1]] // ok: subslice of existing backing array
}

// Alloc allocates; hotpath callers in other packages are flagged through
// this function's Allocates fact.
func Alloc(n int) []float64 {
	return make([]float64, n)
}

// Plain is allocation-free without being hotpath: hot code may call it.
func Plain(s *CSR) int {
	return len(s.Order)
}

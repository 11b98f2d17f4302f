package eval

// Engine cloning.
//
// A single Engine stays single-goroutine (scratch buffers, coefficient
// cache, tracked state), but everything expensive it holds is immutable
// after construction: the circuit, the technology, the activity profile, the
// wiring model, the pure delay/power evaluators and the topological order.
// Clone shares all of that and allocates only fresh scratch, so a worker
// engine costs two float slices and an empty coefficient map — cheap enough
// to build one per worker in every parallel driver.
//
// Clones do not share coefficient caches. Workers price disjoint voltage
// pairs (a landscape cell, a refine candidate, a sweep point each), so a
// shared cache would save almost no transcendental evaluations and would put
// a lock on the path of every gate-delay call that misses the fast path.

// Clone returns a new engine over the same circuit, technology, activity,
// wiring and clock, sharing every immutable structure with the receiver,
// with fresh scratch buffers, counters and an empty coefficient cache. The
// clone is as single-goroutine as any engine — Clone exists so each worker
// of a parallel driver can own one — but clone and parent may run
// concurrently with each other. Incremental-evaluation bindings are not
// carried over: the clone starts unbound.
func (e *Engine) Clone() *Engine {
	n := e.C.N()
	c := &Engine{
		C:         e.C,
		Tech:      e.Tech,
		Act:       e.Act,
		Wire:      e.Wire,
		Fc:        e.Fc,
		dm:        e.dm,
		pm:        e.pm,
		cs:        e.cs,
		numLogic:  e.numLogic,
		cache:     make(map[coeffKey]coeffEntry),
		fanStride: e.fanStride,
		sink:      e.sink,
		td:        make([]float64, n),
		arr:       make([]float64, n),
	}
	return c
}

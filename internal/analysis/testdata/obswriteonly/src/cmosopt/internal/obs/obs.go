// Package obs is a stub of the observability layer for analyzer fixtures.
package obs

// Registry is the metric sink stub.
type Registry struct{ counters map[string]*Counter }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{counters: map[string]*Counter{}} }

// Counter returns the named counter (write-path API).
func (r *Registry) Counter(name string) *Counter {
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot freezes the registry (read-path API).
func (r *Registry) Snapshot() Snapshot { return Snapshot{} }

// Wall returns elapsed wall time (read-path API).
func (r *Registry) Wall() int64 { return 0 }

// Snapshot is the frozen registry state.
type Snapshot struct{ WallNS int64 }

// Counter is an int64 metric.
type Counter struct{ v int64 }

// Add increments (write-path API).
func (c *Counter) Add(n int64) { c.v += n }

// Set overwrites (write-path API).
func (c *Counter) Set(n int64) { c.v = n }

// Value reads the current value (read-path API).
func (c *Counter) Value() int64 { return c.v }

// Histogram is a log-scale histogram.
type Histogram struct{ n int64 }

// Observe records one sample (write-path API).
func (h *Histogram) Observe(v int64) { h.n++ }

// Snapshot freezes the histogram (read-path API).
func (h *Histogram) Snapshot() HistogramSnapshot { return HistogramSnapshot{Count: h.n} }

// HistogramSnapshot is the frozen histogram state.
type HistogramSnapshot struct{ Count int64 }

// Span is one node of the hierarchical timing tree.
type Span struct{}

// Root returns the registry's root span.
func (r *Registry) Root() *Span { return &Span{} }

// Child returns a named child span (write-path API).
func (s *Span) Child(name string) *Span { return &Span{} }

// Snapshot freezes the span subtree (read-path API).
func (s *Span) Snapshot() SpanSnapshot { return SpanSnapshot{} }

// SpanSnapshot is the frozen span state.
type SpanSnapshot struct{ Count, DurationNS int64 }

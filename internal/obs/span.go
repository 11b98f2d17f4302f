package obs

import (
	"sync"
	"time"
)

// Span is one named node of the hierarchical timing tree: a cumulative
// (count, duration) pair and child spans. Repeated measurements of the same
// named activity — every "widths" solve inside every bisection level —
// aggregate onto one node, so the tree's size is bounded by the program's
// phase structure, not by how long it ran.
//
// A Span is the aggregation point; the active interval is a Timing obtained
// from Start. Concurrent Timings on the same node (worker clones solving
// candidates in parallel) are safe: each carries its own start time and the
// node accumulates under a mutex. All methods are nil-safe no-ops on a nil
// receiver, so instrumented code needs no "is observability on?" branches.
type Span struct {
	name string

	mu       sync.Mutex
	count    int64
	durNS    int64
	order    []*Span
	children map[string]*Span
}

func newSpan(name string) *Span { return &Span{name: name} }

// Child returns the child node with the given name, creating it on first use.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children == nil {
		s.children = make(map[string]*Span)
	}
	c := s.children[name]
	if c == nil {
		c = newSpan(name)
		s.children[name] = c
		s.order = append(s.order, c)
	}
	return c
}

// Timing is one active start/stop interval on a span node. It is owned by a
// single goroutine; Stop is idempotent.
type Timing struct {
	s       *Span
	t0      time.Time
	stopped bool
}

// Start begins a new timed interval on this node and returns its handle.
func (s *Span) Start() *Timing {
	if s == nil {
		return nil
	}
	return &Timing{s: s, t0: time.Now()}
}

// StartChild is Child(name).Start() in one call.
func (s *Span) StartChild(name string) *Timing { return s.Child(name).Start() }

// Stop ends the interval, accumulating its duration onto the node, and
// returns the elapsed time. Safe to call more than once (later calls no-op).
func (t *Timing) Stop() time.Duration {
	if t == nil || t.stopped {
		return 0
	}
	t.stopped = true
	d := time.Since(t.t0)
	t.s.mu.Lock()
	t.s.count++
	t.s.durNS += d.Nanoseconds()
	t.s.mu.Unlock()
	return d
}

// SpanSnapshot is the JSON form of one span node and its subtree. Children
// keep first-seen order, which follows program phase order for the serial
// skeleton of a run.
type SpanSnapshot struct {
	Name       string         `json:"name"`
	Count      int64          `json:"count"`
	DurationNS int64          `json:"duration_ns"`
	Children   []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot deep-copies the subtree rooted at s.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	s.mu.Lock()
	out := SpanSnapshot{
		Name:       s.name,
		Count:      s.count,
		DurationNS: s.durNS,
	}
	kids := make([]*Span, len(s.order))
	copy(kids, s.order)
	s.mu.Unlock()
	for _, c := range kids {
		out.Children = append(out.Children, c.Snapshot())
	}
	return out
}

// Package obs is the observability layer: hierarchical timing spans,
// monotonic counters, log-scale histograms and per-worker utilization stats,
// collected in a Registry that snapshots to JSON, exports through expvar, and
// feeds the run manifests every command-line tool can emit with -metrics.
//
// Design rules, in decreasing order of importance:
//
//   - instrumentation must never change optimizer outputs: nothing in this
//     package is consulted by any algorithm, and every entry point is nil-safe
//     (a nil *Registry, *Span, *Counter, *Histogram or *WorkerStat accepts
//     every call as a no-op), so instrumented code paths read identically
//     whether or not a registry is attached;
//   - concurrency-safe throughout: spans aggregate under per-node mutexes,
//     counters and histograms are atomic, so engine clones and worker pools
//     record into one shared registry without coordination;
//   - zero dependencies: standard library only, like the rest of the module.
//
// The package distinguishes the *aggregation node* (Span: a named position in
// the tree holding cumulative count/duration) from the *active measurement*
// (Timing: one start/stop interval). Repeated work with the same name —
// every "widths" solve inside every bisection level — lands on one node, so
// a manifest's span tree stays bounded no matter how long the run.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is one run's metric sink: a root span, named counters, named
// histograms and per-worker pool stats. All methods are concurrency-safe and
// nil-safe.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	workers  []*WorkerStat
	root     *Span
	rootT    *Timing
	start    time.Time
	wall     atomic.Int64 // set by Finish
}

// NewRegistry returns an empty registry whose root span ("run") starts now.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		root:     newSpan("run"),
		start:    time.Now(),
	}
	r.rootT = r.root.Start()
	return r
}

// Root returns the root span node; all top-level phases are its children.
func (r *Registry) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named log-scale histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Worker returns the stats slot of worker index i (grown on demand). Worker
// indices come from internal/parallel: every pool's worker w accumulates into
// slot w, so the slot holds that worker lane's lifetime utilization.
func (r *Registry) Worker(i int) *WorkerStat {
	if r == nil || i < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.workers) <= i {
		r.workers = append(r.workers, &WorkerStat{})
	}
	return r.workers[i]
}

// Finish stops the root span and freezes the run's wall time. Idempotent;
// returns the wall-clock duration since NewRegistry.
func (r *Registry) Finish() time.Duration {
	if r == nil {
		return 0
	}
	if r.wall.Load() == 0 {
		r.rootT.Stop()
		r.wall.Store(int64(time.Since(r.start)))
	}
	return time.Duration(r.wall.Load())
}

// Wall returns the elapsed wall-clock time: frozen by Finish, otherwise live.
func (r *Registry) Wall() time.Duration {
	if r == nil {
		return 0
	}
	if w := r.wall.Load(); w != 0 {
		return time.Duration(w)
	}
	return time.Since(r.start)
}

// Snapshot captures the registry's current state. Counter and histogram maps
// are keyed by name (encoding/json emits map keys sorted, so serialized
// snapshots are stably ordered); the span tree keeps first-seen child order.
type Snapshot struct {
	WallNS     int64                        `json:"wall_ns"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Workers    []WorkerSnapshot             `json:"workers,omitempty"`
	Spans      *SpanSnapshot                `json:"spans,omitempty"`
}

// Snapshot returns a point-in-time copy of every metric in the registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	counters := make(map[string]int64, len(names))
	for _, n := range names {
		counters[n] = r.counters[n].Value()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for n, h := range r.hists {
		s := h.Snapshot()
		if s.Count > 0 {
			hists[n] = s
		}
	}
	var workers []WorkerSnapshot
	for i, w := range r.workers {
		if s := w.snapshot(i); s.BusyNS > 0 || s.Iterations > 0 {
			workers = append(workers, s)
		}
	}
	r.mu.Unlock()

	spans := r.root.Snapshot()
	if spans.DurationNS == 0 {
		// The root span is still running: report its live duration so
		// mid-run expvar reads stay meaningful.
		spans.DurationNS = time.Since(r.start).Nanoseconds()
		spans.Count = 1
	}
	s := Snapshot{
		WallNS:  r.Wall().Nanoseconds(),
		Workers: workers,
		Spans:   &spans,
	}
	if len(counters) > 0 {
		s.Counters = counters
	}
	if len(hists) > 0 {
		s.Histograms = hists
	}
	return s
}

// Counter is a concurrency-safe monotonic (or gauge, via Set) int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Set overwrites the counter's value (for gauge-style readings such as the
// current coefficient-cache size).
func (c *Counter) Set(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Value returns the current value.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// WorkerStat accumulates one worker lane's pool utilization: time spent in
// iteration bodies (busy), time spent waiting for work or for the pool to
// drain (idle), and the number of iterations executed.
type WorkerStat struct {
	busyNS atomic.Int64
	idleNS atomic.Int64
	iters  atomic.Int64
}

// Record adds one pool participation to the lane's totals.
func (w *WorkerStat) Record(busy, idle time.Duration, iters int64) {
	if w == nil {
		return
	}
	w.busyNS.Add(int64(busy))
	w.idleNS.Add(int64(idle))
	w.iters.Add(iters)
}

// WorkerSnapshot is one worker lane's aggregate utilization.
type WorkerSnapshot struct {
	Worker      int     `json:"worker"`
	BusyNS      int64   `json:"busy_ns"`
	IdleNS      int64   `json:"idle_ns"`
	Iterations  int64   `json:"iterations"`
	Utilization float64 `json:"utilization"` // busy / (busy + idle)
}

func (w *WorkerStat) snapshot(i int) WorkerSnapshot {
	s := WorkerSnapshot{
		Worker:     i,
		BusyNS:     w.busyNS.Load(),
		IdleNS:     w.idleNS.Load(),
		Iterations: w.iters.Load(),
	}
	if tot := s.BusyNS + s.IdleNS; tot > 0 {
		s.Utilization = float64(s.BusyNS) / float64(tot)
	}
	return s
}

// defaultReg is the process-wide registry used by instrumentation sites that
// have no natural plumbing path (the worker pools of internal/parallel).
// Command-line tools install their run registry here; it is nil (recording
// disabled) unless a tool or test sets it.
var defaultReg atomic.Pointer[Registry]

// SetDefault installs (or, with nil, removes) the process-default registry.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// Default returns the process-default registry, or nil when none is set.
func Default() *Registry { return defaultReg.Load() }

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer of the program.
// Spans of one operation share Op; Parent is the enclosing span's ID, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written once, at exit. A nil
// *tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// handlerSpan joins a request's server-side runner span to the handler
	// span of the same operation (the runner runs on an executor goroutine).
	handlerSpan map[int64]int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), handlerSpan: make(map[int64]int)}
}

// begin opens a span and returns its ID (-1 when t is nil).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(op int64, parent int, name string, fn func(id int)) time.Duration {
	id := t.begin(op, parent, name)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	t.end(id)
	return d
}

func (t *tracer) setHandlerSpan(op int64, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.handlerSpan[op] = id
	t.mu.Unlock()
}

func (t *tracer) handlerSpanOf(op int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.handlerSpan[op]; ok {
		return id
	}
	return -1
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children, indexed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		open := false
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curS, curE, open = lo, hi, true
			case lo <= curE:
				curE = max(curE, hi)
			default:
				covered += curE - curS
				curS, curE = lo, hi
			}
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = time.Duration(s.End-s.Start-covered) * time.Nanosecond
	}
	return self
}

// printSpanSummary writes one line per span name: count, median duration,
// total and self time.
func printSpanSummary(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		total, self time.Duration
		durs        []time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.total += s.dur()
		a.self += self[s.ID]
		a.durs = append(a.durs, s.dur())
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %6s %14s %14s %14s\n", "span", "count", "median", "total", "self")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-24s %6d %14v %14v %14v\n", n, len(a.durs), quantile(a.durs, 0.5), a.total, a.self)
	}
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

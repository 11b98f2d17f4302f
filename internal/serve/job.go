package serve

import (
	"context"
	"sync"

	"cmosopt/internal/obs"
)

// job is one admitted request moving through queued → running →
// done/failed/canceled. The terminal transition happens exactly once
// (Server.finish), which counts it and then closes done; everything else is
// a read under mu.
//
// A terminal job keeps only what the API can still return: its status
// envelope, its stored result bytes and its final spans. The transition
// drops the request (with any inline netlist text) and the span registry, so
// a retained job's size does not grow with its request's.
type job struct {
	id  string
	key string // content address ("" when the request opted out)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  string
	cached bool
	req    *Request // the runner's input; nil once terminal
	// reg is the job's private span registry while it is live: the runner
	// attaches it to the problem Spec, the SSE endpoint flattens it into
	// progress events. Never the process-default registry — concurrent
	// jobs must not mix. nil once terminal, and for a cache hit.
	reg    *obs.Registry
	spans  []obs.FlatSpan // reg's final flattening, set at the terminal transition
	res    *storedResult
	errMsg string
}

// storedResult is a finished job's Result in its one encoding: the bytes
// writeJSON's indenting encoder writes for it at the "result" position of a
// JobStatus, one level deep (see encodeResult). The executor builds it when
// the job succeeds; the job and the result cache share it, and nothing
// modifies it afterwards.
type storedResult struct {
	json []byte
}

// idleSpans is the flattening of a registry nothing ran under. A cache hit
// streams it instead of allocating a registry of its own; it is shared and
// never modified.
var idleSpans = flatten(obs.NewRegistry())

// hitCtx and hitDone are every cache hit's context and done channel: a hit
// is created done, so one canceled context and one closed channel serve them
// all. Nothing cancels or closes them again: finish ignores a job that is
// already done.
var hitCtx, hitDone = func() (context.Context, chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	close(done)
	return ctx, done
}()

func flatten(reg *obs.Registry) []obs.FlatSpan {
	snap := reg.Root().Snapshot()
	return snap.Flatten()
}

// begin moves queued → running and hands the executor the job's request and
// registry; ok false means the job was canceled while it waited and the
// executor must skip it.
func (j *job) begin() (req *Request, reg *obs.Registry, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, nil, false
	}
	j.state = StateRunning
	return j.req, j.reg, true
}

// finish records the terminal state once and reports whether this call did;
// later calls are ignored (a cancel racing a natural completion keeps
// whichever landed first). The caller that wins closes done. spans is the
// registry's final flattening, which the caller takes before the call so
// that the walk over the span tree does not hold mu.
func (j *job) finish(state string, res *storedResult, err error, spans []obs.FlatSpan) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return false
	}
	j.state = state
	j.res = res
	if err != nil {
		j.errMsg = err.Error()
	}
	j.req, j.reg, j.spans = nil, nil, spans
	return true
}

// progress returns the job's flattened spans: a fresh snapshot of its
// registry while it is live, the final spans once it is terminal.
func (j *job) progress() []obs.FlatSpan {
	j.mu.Lock()
	reg, spans := j.reg, j.spans
	j.mu.Unlock()
	if reg == nil {
		return spans
	}
	return flatten(reg)
}

// envelope snapshots the job's status without its Result, and returns the
// stored result (nil until the job is done).
func (j *job) envelope() (JobStatus, *storedResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Key: j.key, Cached: j.cached, Error: j.errMsg}, j.res
}

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
type job struct {
	id  string
	req *Request
	key string // content address ("" when the request opted out)

	// reg is the job's private span registry: the runner attaches it to
	// the problem Spec, the SSE endpoint flattens it into progress events.
	// Never the process-default registry — concurrent jobs must not mix.
	reg *obs.Registry

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  string
	cached bool
	res    *storedResult
	err    error
}

// storedResult is a finished job's Result together with its one encoding.
// The executor builds it when the job succeeds; the job and the result cache
// share it, and nothing modifies it afterwards.
type storedResult struct {
	res  *Result
	json []byte // res as encodeResult encodes it
}

// begin moves queued → running; false means the job was canceled while it
// waited and the executor must skip it.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// finish records the terminal state once and reports whether this call did;
// later calls are ignored (a cancel racing a natural completion keeps
// whichever landed first). The caller that wins closes done.
func (j *job) finish(state string, res *storedResult, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return false
	}
	j.state = state
	j.res = res
	j.err = err
	return true
}

// status snapshots the job for the wire.
func (j *job) status() JobStatus {
	s, res := j.envelope()
	if res != nil {
		s.Result = res.res
	}
	return s
}

// envelope snapshots the job's status without its Result, and returns the
// stored result (nil until the job is done).
func (j *job) envelope() (JobStatus, *storedResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{ID: j.id, State: j.state, Key: j.key, Cached: j.cached}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s, j.res
}

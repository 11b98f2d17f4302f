// Package serve (fixture): the job table's eviction scan of
// internal/serve/serve.go, with the mutant that returns before releasing
// the job lock. The evicted job's lock stays held, so a client still
// holding the job (an event stream, a cancel) blocks forever on it; the
// job is gone from the table, so no test ever takes that lock again:
// go test ./... passes with this mutant.
package serve

import "sync"

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

type job struct {
	mu    sync.Mutex
	state State
}

// Server holds the job table.
type Server struct {
	jobs  map[string]*job
	order []string
}

// oldestTerminalLocked returns the index in s.order of the oldest terminal
// job, or -1 when every retained job is live.
func (s *Server) oldestTerminalLocked() int {
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock() // want `j.mu is not released on every exit path of oldestTerminalLocked`
		if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
			return i
		}
		j.mu.Unlock()
	}
	return -1
}

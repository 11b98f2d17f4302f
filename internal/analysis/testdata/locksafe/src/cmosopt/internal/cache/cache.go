// Package cache (fixture): lock-discipline cases for the locksafe analyzer,
// shaped like the shards of a mutex-guarded map cache.
package cache

import (
	"sync"

	"cmosopt/internal/eval"
)

type shard struct {
	mu sync.Mutex
	m  map[int]float64
}

// Lookup is the straight-line lock/unlock idiom the shards use: no defer,
// no closure, release on the single exit path.
func (s *shard) Lookup(k int) (float64, bool) {
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Deferred releases through defer: every exit path is covered.
func (s *shard) Deferred(k int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

// DeferredClosure releases inside a deferred function literal.
func (s *shard) DeferredClosure(k int, hits *int) float64 {
	s.mu.Lock()
	defer func() {
		*hits++
		s.mu.Unlock()
	}()
	return s.m[k]
}

// Leak returns early with the lock held.
func (s *shard) Leak(k int) float64 {
	s.mu.Lock() // want `s.mu is not released on every exit path of Leak`
	if v, ok := s.m[k]; ok {
		return v
	}
	s.mu.Unlock()
	return 0
}

// PanicExit is clean: the path that fails ends in panic (unwinding runs the
// defers; a poisoned lock is moot), the normal path unlocks.
func (s *shard) PanicExit(k int) float64 {
	s.mu.Lock()
	v, ok := s.m[k]
	if !ok {
		panic("cache: missing key")
	}
	s.mu.Unlock()
	return v
}

type table struct {
	mu sync.RWMutex
	m  map[int]int
}

// ReadPath pairs RLock with RUnlock.
func (t *table) ReadPath(k int) int {
	t.mu.RLock()
	v := t.m[k]
	t.mu.RUnlock()
	return v
}

// Mismatch releases a read lock with Unlock: the RLock is never satisfied.
func (t *table) Mismatch(k int) int {
	t.mu.RLock() // want `t.mu is not released on every exit path of Mismatch`
	v := t.m[k]
	t.mu.Unlock()
	return v
}

type flusher struct{}

func (f *flusher) FlushObs() {}

// BadFlush flushes observability counters while holding the shard lock.
func (s *shard) BadFlush(f *flusher) {
	s.mu.Lock()
	f.FlushObs() // want `FlushObs while s.mu is held`
	s.mu.Unlock()
}

// GoodFlush flushes after releasing.
func (s *shard) GoodFlush(f *flusher) {
	s.mu.Lock()
	s.mu.Unlock()
	f.FlushObs() // ok: lock released
}

// BadSend performs a blocking channel send under the lock.
func (s *shard) BadSend(ch chan int) {
	s.mu.Lock()
	ch <- 1 // want `channel send while s.mu is held`
	s.mu.Unlock()
}

// SelectSend is exempt: a select communication cannot block the holder when
// a default (or peer) case exists.
func (s *shard) SelectSend(ch chan int) {
	s.mu.Lock()
	select {
	case ch <- 1: // ok: select communication
	default:
	}
	s.mu.Unlock()
}

// GoSend hands the send to another goroutine: the holder does not block.
func (s *shard) GoSend(ch chan int) {
	s.mu.Lock()
	go func() { ch <- 1 }() // ok: runs on another goroutine
	s.mu.Unlock()
}

// BadEval runs a full engine evaluation under the shard lock, stalling every
// waiter on it for the length of the evaluation.
func (s *shard) BadEval(e *eval.Engine) {
	s.mu.Lock()
	_ = e.Energy(0) // want `engine evaluation while s.mu is held`
	s.mu.Unlock()
}

// Conditional uses the locked-flag idiom: beyond the analyzer's state, so it
// carries the documented suppression.
func (s *shard) Conditional(k int, early bool) float64 {
	s.mu.Lock() //cmosvet:allow locksafe — locked-flag idiom: ownership tracked by `locked`, released on both paths below
	locked := true
	if early {
		s.mu.Unlock()
		locked = false
	}
	v := s.m[k]
	if locked {
		s.mu.Unlock()
	}
	return v
}

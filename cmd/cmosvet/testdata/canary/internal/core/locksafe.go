package core

import "sync"

type table struct {
	mu sync.Mutex
	m  map[string]int
}

// get returns early with the lock still held.
func (t *table) get(k string) (int, bool) {
	t.mu.Lock()
	if v, ok := t.m[k]; ok {
		return v, true
	}
	t.mu.Unlock()
	return 0, false
}

var _ = (*table).get

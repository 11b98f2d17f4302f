package serve

import (
	"container/list"
	"sync"
)

// lru is a bounded, concurrency-safe least-recently-used map. It backs the
// content-addressed result cache, the uploaded-netlist store and the body
// index: under heavy traffic each must hold its hottest entries and shed the
// rest, or the server's memory grows with its uptime.
type lru[K comparable, V any] struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	return &lru[K, V]{max: max, ll: list.New(), m: make(map[K]*list.Element)}
}

// get returns the value and promotes the entry.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*lruEntry[K, V]).val, true
}

// put inserts or refreshes an entry, evicting the coldest beyond capacity.
func (c *lru[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*lruEntry[K, V]).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// len returns the live entry count.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

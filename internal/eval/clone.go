package eval

import (
	"math"
	"sync"

	"cmosopt/internal/delay"
)

// Engine cloning and the concurrency-safe device-coefficient cache.
//
// A single Engine stays single-goroutine (scratch buffers, tracked state),
// but everything expensive it holds is immutable after construction: the
// circuit, the technology, the activity profile, the wiring model, the pure
// delay/power evaluators and the topological order. Clone shares all of that
// and allocates only fresh scratch, so a worker engine costs two float slices
// and a fanout-sized load buffer — cheap enough to build one per worker in
// every parallel driver.
//
// Clones also share the coefficient cache. The coefficient triple of a
// (V_dd, V_TS) pair is a pure function of the pair, so a concurrent cache
// cannot change any value, only who pays the transcendental evaluations: N
// workers sweeping the same voltage grid fill it once instead of N times.
// The cache is sharded by key hash to keep lock contention off the hot path;
// each engine additionally keeps its private single-entry fast path (in
// eval.go), which serves the overwhelming share of lookups without touching
// a mutex.

// coeffShards is the number of independently locked cache shards. Voltage
// pairs hash well (they come from bisection midpoints and RNG draws), so a
// small power of two suffices to make contention unmeasurable.
const coeffShards = 16

type coeffShard struct {
	mu sync.Mutex
	m  map[coeffKey]delay.Coeffs
	// Lifetime hit/miss tallies for this shard (under mu; monotonic even
	// across clears). Observability only — never consulted by evaluation.
	hits   int64
	misses int64
}

// CoeffCache is a concurrency-safe map from (V_dd, V_TS) to the device
// coefficients of that operating point, shared by an engine and its clones.
// Each shard is cleared (not grown without bound) when it exceeds its slice
// of maxCoeffEntries — Monte-Carlo studies draw unbounded fresh pairs.
type CoeffCache struct {
	shards [coeffShards]coeffShard
}

// NewCoeffCache returns an empty shared coefficient cache.
func NewCoeffCache() *CoeffCache {
	cc := &CoeffCache{}
	for i := range cc.shards {
		cc.shards[i].m = make(map[coeffKey]delay.Coeffs)
	}
	return cc
}

//cmosvet:hotpath
func (cc *CoeffCache) shardFor(k coeffKey) *coeffShard {
	// Mix both float bit patterns; fibonacci hashing spreads the structured
	// low-entropy bisection values across shards.
	h := math.Float64bits(k.vdd)*0x9E3779B97F4A7C15 ^ math.Float64bits(k.vts)
	h *= 0x9E3779B97F4A7C15
	return &cc.shards[h>>59&(coeffShards-1)]
}

// lookup returns the cached coefficients of k, if present.
//
//cmosvet:hotpath
func (cc *CoeffCache) lookup(k coeffKey) (delay.Coeffs, bool) {
	s := cc.shardFor(k)
	s.mu.Lock()
	c, ok := s.m[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return c, ok
}

// store inserts the coefficients of k, clearing the shard first when full.
//
//cmosvet:hotpath
func (cc *CoeffCache) store(k coeffKey, c delay.Coeffs) {
	s := cc.shardFor(k)
	s.mu.Lock()
	if len(s.m) >= maxCoeffEntries/coeffShards {
		clear(s.m)
	}
	s.m[k] = c
	s.mu.Unlock()
}

// CacheShardStats is one shard's lifetime statistics: shared-map hits and
// misses (the engines' private single-entry fast paths never reach the
// shards, so these measure the cross-clone sharing benefit) plus current
// entry count.
type CacheShardStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// ShardStats returns a per-shard statistics snapshot (each shard locked
// individually; the whole-cache view is racy, which diagnostics tolerate).
func (cc *CoeffCache) ShardStats() [coeffShards]CacheShardStats {
	var out [coeffShards]CacheShardStats
	for i := range cc.shards {
		s := &cc.shards[i]
		s.mu.Lock()
		out[i] = CacheShardStats{Hits: s.hits, Misses: s.misses, Entries: len(s.m)}
		s.mu.Unlock()
	}
	return out
}

// Len reports the number of cached operating points (racy snapshot; for
// tests and diagnostics).
func (cc *CoeffCache) Len() int {
	n := 0
	for i := range cc.shards {
		cc.shards[i].mu.Lock()
		n += len(cc.shards[i].m)
		cc.shards[i].mu.Unlock()
	}
	return n
}

// Clone returns a new engine over the same circuit, technology, activity,
// wiring and clock, sharing every immutable structure and the coefficient
// cache with the receiver, with fresh scratch buffers and counters. The
// clone is as single-goroutine as any engine — Clone exists so each worker
// of a parallel driver can own one — but clone and parent may run
// concurrently with each other. Incremental-evaluation bindings are not
// carried over: the clone starts unbound.
func (e *Engine) Clone() *Engine {
	n := e.C.N()
	c := &Engine{
		C:        e.C,
		Tech:     e.Tech,
		Act:      e.Act,
		Wire:     e.Wire,
		Fc:       e.Fc,
		dm:       e.dm,
		pm:       e.pm,
		cs:       e.cs,
		numLogic: e.numLogic,
		cache:    e.cache,
		sink:     e.sink,
		td:       make([]float64, n),
		arr:      make([]float64, n),
	}
	c.probe = WidthProbe{met: &c.met, d: e.dm.NewPrepared()}
	return c
}

// CoeffCacheShared exposes the engine's shared coefficient cache (for tests).
func (e *Engine) CoeffCacheShared() *CoeffCache { return e.cache }

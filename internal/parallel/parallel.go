// Package parallel is the worker-pool layer under every grid, sweep and
// Monte-Carlo driver: independent iterations fan out over a fixed set of
// goroutines, results land in their input slots, and reductions stay with the
// caller — so output bytes never depend on the worker count or on goroutine
// scheduling.
//
// The contract every helper follows:
//
//   - iterations are dynamically scheduled (an atomic cursor), so uneven
//     per-item cost does not idle workers;
//   - each iteration writes only state indexed by its own iteration number
//     (Map) or owned exclusively by its worker (the `worker` argument indexes
//     per-worker engine clones made with Pool), never shared scratch;
//   - workers ≤ 0 means runtime.GOMAXPROCS(0); workers == 1 (or n ≤ 1) runs
//     inline on the calling goroutine with worker index 0, so the serial path
//     is the parallel path with one worker, not separate code.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cmosopt/internal/obs"
)

// Workers normalizes a worker-count knob: values below 1 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs body(worker, i) for every i in [0, n), distributing iterations
// over up to `workers` goroutines (0 = GOMAXPROCS) and blocking until all
// complete. The worker index identifies the goroutine (0 ≤ worker < number
// of workers actually started), so callers can give each worker exclusive
// mutable state — an engine clone, a scratch assignment — via Pool. If a
// body panics, For stops handing out iterations, waits for the running ones
// and panics with the first panic value on the calling goroutine.
func For(workers, n int, body func(worker, i int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	// Pool utilization recording goes to the process-default registry when one
	// is installed (command-line tools with -metrics); with none, every
	// recording call below is a no-op on the nil registry. It is write-only —
	// scheduling is the same atomic cursor either way, so results cannot
	// depend on whether recording is on.
	reg := obs.Default()
	if w <= 1 {
		t0 := time.Now() //cmosvet:allow determinism — lane utilization feeds obs only; scheduling is unchanged
		for i := 0; i < n; i++ {
			body(0, i)
		}
		//cmosvet:allow determinism — lane utilization feeds obs only; scheduling is unchanged
		d := time.Since(t0)
		reg.Worker(0).Record(d, 0, int64(n))
		recordPool(reg, n, d)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstPanic sync.Once
	var panicked any
	wg.Add(w)
	t0 := time.Now() //cmosvet:allow determinism — pool wall time feeds obs only; scheduling is unchanged
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			// A panic on a pool goroutine would kill the process, since no
			// caller can recover it there. Keep the first one, hand out no
			// more iterations, and re-raise it on the calling goroutine.
			defer func() {
				if p := recover(); p != nil {
					firstPanic.Do(func() { panicked = p })
					next.Store(int64(n))
				}
			}()
			// busy is time inside iteration bodies; idle is the rest of the
			// lane's lifetime — spawn latency, cursor contention and
			// scheduling gaps (workers never block waiting for items, so
			// there is no queue-wait component).
			lane := time.Now() //cmosvet:allow determinism — lane utilization feeds obs only; scheduling is unchanged
			var busy time.Duration
			iters := int64(0)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				it := time.Now() //cmosvet:allow determinism — iteration timing feeds obs only
				body(wk, i)
				//cmosvet:allow determinism — iteration timing feeds obs only
				busy += time.Since(it)
				iters++
			}
			//cmosvet:allow determinism — lane utilization feeds obs only; scheduling is unchanged
			reg.Worker(wk).Record(busy, time.Since(lane)-busy, iters)
		}(wk)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	//cmosvet:allow determinism — pool wall time feeds obs only; scheduling is unchanged
	recordPool(reg, n, time.Since(t0))
}

// recordPool records one pool drain: how many items it dispatched and how
// long the whole drain took wall-clock.
func recordPool(reg *obs.Registry, n int, wall time.Duration) {
	reg.Counter("parallel.pools").Add(1)
	reg.Counter("parallel.iterations").Add(int64(n))
	reg.Histogram("parallel.pool_items").Observe(int64(n))
	reg.Histogram("parallel.pool_wall_ns").ObserveDuration(wall)
}

// Map runs fn for every i in [0, n) over up to `workers` goroutines and
// returns the results in iteration order, regardless of scheduling.
func Map[T any](workers, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	For(workers, n, func(wk, i int) {
		out[i] = fn(wk, i)
	})
	return out
}

// FirstError runs body for every i in [0, n) and returns the error of the
// lowest failing iteration index, or nil. All iterations run to completion
// (an error does not cancel the rest), matching what a serial loop that
// collects per-slot errors and reports the first one would produce.
func FirstError(workers, n int, body func(worker, i int) error) error {
	for _, err := range Map(workers, n, func(wk, i int) error { return body(wk, i) }) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Pool builds one state per worker — typically an evaluation-engine clone
// plus scratch buffers — for use as `states[worker]` inside a For/Map body.
// The worker count is normalized with Workers; mk runs on the calling
// goroutine, so it may touch state that is not yet safe to share.
func Pool[S any](workers int, mk func(worker int) S) []S {
	out := make([]S, Workers(workers))
	for i := range out {
		out[i] = mk(i)
	}
	return out
}

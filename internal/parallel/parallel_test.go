package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 9} {
		const n = 137
		var hits [n]atomic.Int64
		For(w, n, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", w, i, got)
			}
		}
	}
}

func TestForWorkerIndexInRange(t *testing.T) {
	const w, n = 4, 100
	var bad atomic.Int64
	For(w, n, func(wk, _ int) {
		if wk < 0 || wk >= w {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Errorf("%d iterations saw an out-of-range worker index", bad.Load())
	}
}

func TestForSerialRunsInline(t *testing.T) {
	// workers = 1 must not spawn goroutines: body observes a strict 0..n-1
	// iteration order on the calling goroutine.
	want := 0
	For(1, 25, func(wk, i int) {
		if wk != 0 || i != want {
			t.Fatalf("serial For out of order: worker %d, i %d, want 0, %d", wk, i, want)
		}
		want++
	})
}

// A body's panic on a pool goroutine reaches For's caller, which can recover
// it; on any other goroutine it would crash the process.
func TestForPassesPanicToCaller(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Errorf("recovered %v, want boom", p)
		}
	}()
	For(2, 100, func(_, i int) {
		if i == 7 {
			panic("boom")
		}
	})
	t.Error("For returned normally after a body panicked")
}

func TestMapOrderedResults(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		out := Map(w, 50, func(_, i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
			}
		}
	}
}

func TestFirstErrorLowestIndexWins(t *testing.T) {
	errAt := func(bad map[int]error) func(int, int) error {
		return func(_, i int) error { return bad[i] }
	}
	e3, e7 := errors.New("three"), errors.New("seven")
	for _, w := range []int{1, 4} {
		if err := FirstError(w, 10, errAt(map[int]error{7: e7, 3: e3})); err != e3 {
			t.Errorf("workers=%d: got %v, want %v", w, err, e3)
		}
		if err := FirstError(w, 10, errAt(nil)); err != nil {
			t.Errorf("workers=%d: got %v, want nil", w, err)
		}
	}
}

func TestPoolSizeAndIndices(t *testing.T) {
	states := Pool(3, func(wk int) string { return fmt.Sprintf("s%d", wk) })
	if len(states) != 3 || states[0] != "s0" || states[2] != "s2" {
		t.Errorf("Pool(3) = %v", states)
	}
	if got := len(Pool(0, func(int) int { return 0 })); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Pool(0) made %d states", got)
	}
}

func TestPoolStatesAreExclusivePerWorker(t *testing.T) {
	// The canonical usage under -race: each worker mutates only its own state.
	type scratch struct{ sum int }
	const w, n = 4, 200
	states := Pool(w, func(int) *scratch { return &scratch{} })
	For(w, n, func(wk, i int) { states[wk].sum += i })
	total := 0
	for _, s := range states {
		total += s.sum
	}
	if want := n * (n - 1) / 2; total != want {
		t.Errorf("per-worker sums total %d, want %d", total, want)
	}
}

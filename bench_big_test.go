//go:build bigbench

// Million-gate smoke tests, opt-in via -tags=bigbench: they allocate a few
// hundred megabytes and take tens of seconds, so they are kept out of the
// default tier-1 run. See EXPERIMENTS.md §scale for the numbers these guard.
//
//	go test -tags=bigbench -run BigScale -v .
//	go test -tags=bigbench -bench FullEval1M -benchtime 3x .
package cmosopt

import (
	"runtime"
	"testing"
	"time"

	"cmosopt/internal/core"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// heapLive forces a collection and returns the live heap size.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBigScale1M elaborates the s1m profile (10⁶ gates) end to end — generate,
// cut DFFs, build the CSR core, run Procedure 1 budgeting, construct the
// evaluation engine — and checks the two properties that keep million-gate
// networks tractable: bounded live bytes per gate after elaboration, and
// allocation-free steady-state full sweeps.
func TestBigScale1M(t *testing.T) {
	if testing.Short() {
		t.Skip("bigbench: skipped in -short")
	}
	cfg, err := netgen.ScaleConfig("s1m")
	if err != nil {
		t.Fatal(err)
	}
	base := heapLive()

	start := time.Now()
	c, err := netgen.ScaleProfile("s1m")
	if err != nil {
		t.Fatal(err)
	}
	genDur := time.Since(start)

	start = time.Now()
	p, err := core.NewProblem(core.Spec{
		Circuit: c, Tech: device.Default350(), Wiring: wiring.Default350(),
		Fc: 1 / (float64(cfg.Depth) * 0.35e-9), Skew: 0.95,
		InputProb: 0.5, InputDensity: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	elabDur := time.Since(start)

	n := float64(p.C.N())
	perGate := float64(heapLive()-base) / n
	t.Logf("s1m: generate %v, elaborate %v, live heap %.0f B/gate", genDur, elabDur, perGate)

	// The whole elaborated problem — circuit, CSR core, activity, wiring,
	// budgets, engine, width-solve order — measures 181 B/gate. The 190
	// bound leaves headroom for allocator noise but fails a layout in which
	// each Gate repeats its fanouts (197). See DESIGN.md §8 for the
	// field-by-field budget.
	const maxBytesPerGate = 190
	if perGate > maxBytesPerGate {
		t.Fatalf("live heap %.0f B/gate exceeds %d B/gate budget", perGate, maxBytesPerGate)
	}

	// Steady-state sweeps reuse the engine scratch: after one warm-up to fill
	// the coefficient cache, a full delay+energy evaluation allocates nothing.
	a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
	p.Eval.CriticalDelay(a)
	p.Eval.Energy(a)
	start = time.Now()
	allocs := testing.AllocsPerRun(3, func() {
		p.Eval.CriticalDelay(a)
		p.Eval.Energy(a)
	})
	sweepDur := time.Since(start) / 4
	t.Logf("s1m: full sweep %v, %.1f allocs/op", sweepDur, allocs)
	if allocs > 8 {
		t.Fatalf("steady-state full sweep allocates (%.1f allocs/op); scratch reuse is broken", allocs)
	}
}

// BenchmarkEngineFullEval1M is the million-gate variant of
// BenchmarkEngineFullEval, for hand-run scaling comparisons.
func BenchmarkEngineFullEval1M(b *testing.B) {
	cfg, err := netgen.ScaleConfig("s1m")
	if err != nil {
		b.Fatal(err)
	}
	c, err := netgen.ScaleProfile("s1m")
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(core.Spec{
		Circuit: c, Tech: device.Default350(), Wiring: wiring.Default350(),
		Fc: 1 / (float64(cfg.Depth) * 0.35e-9), Skew: 0.95,
		InputProb: 0.5, InputDensity: 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	a := design.Uniform(p.C.N(), 1.0, 0.15, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Eval.CriticalDelay(a)
		p.Eval.Energy(a)
	}
}

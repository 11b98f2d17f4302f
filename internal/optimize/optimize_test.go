package optimize

import (
	"math"
	"math/rand"
	"testing"
)

func TestRangeBasics(t *testing.T) {
	r := Range{2, 6}
	if r.Mid() != 4 || r.Width() != 4 {
		t.Errorf("mid/width = %v/%v", r.Mid(), r.Width())
	}
	if lo := r.Lower(); lo.Lo != 2 || lo.Hi != 4 {
		t.Errorf("Lower = %+v", lo)
	}
	if hi := r.Higher(); hi.Lo != 4 || hi.Hi != 6 {
		t.Errorf("Higher = %+v", hi)
	}
	if r.Clamp(0) != 2 || r.Clamp(9) != 6 || r.Clamp(3) != 3 {
		t.Error("Clamp broken")
	}
}

func TestLinspace(t *testing.T) {
	pts := Range{0, 1}.Linspace(5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-12 {
			t.Fatalf("linspace = %v", pts)
		}
	}
	if pts := (Range{0, 1}).Linspace(1); len(pts) != 1 || pts[0] != 0.5 {
		t.Errorf("degenerate linspace = %v", pts)
	}
}

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	x, fx := GoldenSection(f, Range{0, 10}, 1e-9, 200)
	if math.Abs(x-2.5) > 1e-6 || fx > 1e-10 {
		t.Errorf("golden = (%v, %v)", x, fx)
	}
}

func TestGoldenSectionEdgeMinimum(t *testing.T) {
	// Monotone increasing: minimum at the left edge.
	x, _ := GoldenSection(func(x float64) float64 { return x }, Range{1, 4}, 1e-9, 200)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("edge minimum = %v, want 1", x)
	}
}

func TestAnnealQuadratic(t *testing.T) {
	cfg := AnnealConfig{Passes: 2, StepsPerPass: 4000, T0: 10, TFinal: 1e-5, Seed: 3}
	energy := func(x float64) float64 { return (x - 4) * (x - 4) }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x + rng.NormFloat64() }
	best, bestE, err := Anneal(cfg, -20.0, energy, neighbor)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-4) > 0.5 || bestE > 0.3 {
		t.Errorf("anneal best = %v (E=%v)", best, bestE)
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	cfg := AnnealConfig{Passes: 3, StepsPerPass: 2000, T0: 1.0, TFinal: 1e-4, Seed: 1}
	energy := func(x float64) float64 { return math.Abs(x - 1) }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x + rng.NormFloat64()*0.5 }
	a1, e1, _ := Anneal(cfg, 0.0, energy, neighbor)
	a2, e2, _ := Anneal(cfg, 0.0, energy, neighbor)
	if a1 != a2 || e1 != e2 {
		t.Error("same seed, different result")
	}
}

func TestAnnealRejectsInfCandidates(t *testing.T) {
	cfg := AnnealConfig{Passes: 1, StepsPerPass: 500, T0: 5, TFinal: 1e-3, Seed: 7}
	// Energy is +Inf outside [0, 2]; inside it's (x−1)².
	energy := func(x float64) float64 {
		if x < 0 || x > 2 {
			return math.Inf(1)
		}
		return (x - 1) * (x - 1)
	}
	neighbor := func(x float64, rng *rand.Rand) float64 { return x + rng.NormFloat64() }
	best, bestE, err := Anneal(cfg, 1.5, energy, neighbor)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(bestE, 1) || best < 0 || best > 2 {
		t.Errorf("anneal accepted infeasible state: %v (E=%v)", best, bestE)
	}
}

func TestAnnealConfigValidation(t *testing.T) {
	energy := func(x float64) float64 { return x * x }
	neighbor := func(x float64, rng *rand.Rand) float64 { return x }
	bad := []AnnealConfig{
		{Passes: 0, StepsPerPass: 10, T0: 1, TFinal: 0.1},
		{Passes: 1, StepsPerPass: 0, T0: 1, TFinal: 0.1},
		{Passes: 1, StepsPerPass: 10, T0: 0, TFinal: 0.1},
		{Passes: 1, StepsPerPass: 10, T0: 1, TFinal: 2},
		{Passes: 1, StepsPerPass: 10, T0: 1, TFinal: 0},
	}
	for i, cfg := range bad {
		if _, _, err := Anneal(cfg, 1.0, energy, neighbor); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

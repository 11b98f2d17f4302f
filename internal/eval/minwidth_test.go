package eval

import (
	"math"
	"math/rand"
	"testing"

	"cmosopt/internal/delay"
	"cmosopt/internal/design"
)

// minSatisfying is the oracle: the generic bisection Procedure 2's width
// search ran before MinWidth, which evaluated the predicate at every tested
// point. It finds the approximately smallest x in [lo, hi] for which
// pred(x) is true, assuming pred is false below some boundary and true
// above; the second result is false when even hi fails.
func minSatisfying(lo, hi float64, steps int, pred func(float64) bool) (float64, bool) {
	if !pred(hi) {
		return hi, false
	}
	if pred(lo) {
		return lo, true
	}
	// invariant: pred(lo) = false, pred(hi) = true
	for i := 0; i < steps; i++ {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// MinWidth decides most of its probes from the closed form c0 + c1/w, and
// on an exact grid takes the bisection's final cell directly, so it must
// agree with the bisection that evaluates Eq. A3 term by term at every
// probe: the same width bits, the same verdict and the same counted work,
// over random gates, ranges, depths and targets. The ranges include exact
// grids, a range exact at 12 halvings but not at 13, and inexact grids,
// which take the loop. The adversarial targets equal the delay at a width
// the search tests, or lie 1–3 ulps from it, which only the margin in
// delay.Prepared's thresholds keep exact; others put a threshold on a
// grid point, or 1–3 ulps to either side of it, where the direct cell's
// two comparisons decide.
func TestMinWidthMatchesBisection(t *testing.T) {
	ranges := []struct {
		lo, hi   float64
		maxSteps int // searches take 1 … maxSteps halvings
	}{
		{1, 100, 20},                 // exact grid up to 46 halvings
		{1, 2, 20},                   // exact
		{0.5, 64, 20},                // exact up to 45 halvings
		{1, 1 + 3*0x1p-40, 13},       // exact up to 12 halvings, inexact at 13
		{1.3, 37.7, 20},              // inexact: 1.3's low mantissa bits are set
		{0x1.fffffffffffffp0, 8, 20}, // inexact: lo's mantissa uses every bit
	}
	for _, g := range []struct {
		lo, hi float64
		steps  int
		exact  bool
	}{
		{1, 100, 1, true}, {1, 100, 20, true}, {1, 100, 46, true}, {1, 100, 47, false},
		{1, 2, 20, true}, {0.5, 64, 20, true},
		{1, 1 + 3*0x1p-40, 12, true}, {1, 1 + 3*0x1p-40, 13, false},
		{1.3, 37.7, 1, false}, {0x1.fffffffffffffp0, 8, 1, false},
		{1, 100, 0, false}, {100, 1, 4, false}, {0, 100, 4, false},
	} {
		if exact := newBisectGrid(g.lo, g.hi, g.steps).step > 0; exact != g.exact {
			t.Errorf("grid [%v, %v] in %d halvings: exact %v, want %v", g.lo, g.hi, g.steps, exact, g.exact)
		}
	}
	var searches, mismatches, noReach, atLo, direct, loopExact, loopInexact int
	var po, nonPO, single, multi, stalled, perGate, onGrid int
	var decided, undecided int // tested widths the closed form decides, and those it leaves to At
	for seed := int64(1); seed <= 4; seed++ {
		c, eng, _, _ := buildCase(t, seed)
		cs := eng.cs
		tech := eng.Tech
		rng := rand.New(rand.NewSource(seed))
		uni := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
		for trial := 0; trial < 120; trial++ {
			a := design.Uniform(c.N(), uni(tech.VddMin, tech.VddMax), 0, 1)
			if trial%3 == 1 {
				a.VddPer = make([]float64, c.N())
				perGate++
			}
			for i := range c.Gates {
				a.Vts[i] = uni(tech.VtsMin, tech.VtsMax)
				a.W[i] = uni(1, 100)
				if a.VddPer != nil {
					a.VddPer[i] = uni(tech.VddMin, tech.VddMax)
				}
			}
			// Every fourth trial's supplies lie far below the legal range:
			// they stall multi-input gates (+Inf delay at every width).
			if trial%4 == 0 {
				a.Vdd = uni(0.01, 0.05)
				for i := range a.VddPer {
					a.VddPer[i] = uni(0.01, 0.05)
				}
			}
			for id := range c.Gates {
				pr := eng.PrepareWidth(id, a, uni(0, 2e-9))
				if cs.IsLogic[id] {
					switch {
					case math.IsInf(pr.d.At(1), 1):
						stalled++
					case cs.IsPO[id]:
						po++
					default:
						nonPO++
					}
					if cs.NumFanin(int32(id)) > 1 {
						multi++
					} else {
						single++
					}
				}
				for _, r := range ranges {
					lo, hi := r.lo, r.hi
					randSteps := func() int { return 1 + rng.Intn(r.maxSteps) }
					check := func(steps int, target float64) {
						searches++
						m0 := *eng.Metrics()
						w, ok := pr.MinWidth(lo, hi, steps, target)
						m1 := *eng.Metrics()
						wTrue, wFalse := pr.d.BracketTrue(target), pr.d.BracketFalse(target)
						wantW, wantOK := minSatisfying(lo, hi, steps, func(w float64) bool {
							if w >= wTrue || w <= wFalse {
								decided++
							} else {
								undecided++
							}
							return pr.At(w) <= target
						})
						m2 := *eng.Metrics()
						grid := newBisectGrid(lo, hi, steps)
						_, cell := grid.final(wTrue, wFalse)
						switch {
						case !wantOK:
							noReach++
						case wantW == lo:
							atLo++
						case cell:
							direct++
						case grid.step > 0:
							loopExact++
						default:
							loopInexact++
						}
						gotProbes, wantProbes := m1.WidthProbes-m0.WidthProbes, m2.WidthProbes-m1.WidthProbes
						gotCalls, wantCalls := m1.GateDelayCalls-m0.GateDelayCalls, m2.GateDelayCalls-m1.GateDelayCalls
						if math.Float64bits(w) != math.Float64bits(wantW) || ok != wantOK ||
							gotProbes != wantProbes || gotCalls != wantCalls {
							mismatches++
							if mismatches <= 5 {
								t.Errorf("gate %d [%v, %v] steps %d target %v (%#x): MinWidth (%v, %v) with %d probes, %d calls; bisection (%v, %v) with %d, %d",
									id, lo, hi, steps, target, math.Float64bits(target),
									w, ok, gotProbes, gotCalls, wantW, wantOK, wantProbes, wantCalls)
							}
						}
						if ok && !(pr.d.At(w) <= target) {
							t.Errorf("gate %d: MinWidth returned %v, whose delay %v misses the target %v", id, w, pr.d.At(w), target)
						}
					}
					// checkNear checks the target and its neighbours 1–3 ulps away.
					checkNear := func(steps int, target float64) {
						for ulps := -3; ulps <= 3; ulps++ {
							tg := target
							for u := 0; u < ulps; u++ {
								tg = math.Nextafter(tg, math.Inf(1))
							}
							for u := 0; u > ulps; u-- {
								tg = math.Nextafter(tg, math.Inf(-1))
							}
							check(steps, tg)
						}
					}
					dLo, dHi := pr.d.At(lo), pr.d.At(hi)
					// Random targets: below, across and above the range's delays.
					for k := 0; k < 4; k++ {
						check(randSteps(), uni(0.8, 1.25)*pr.d.At(uni(lo, hi)))
					}
					check(randSteps(), uni(0.5, 1)*dHi)
					check(randSteps(), uni(1, 2)*dLo)
					// Targets the closed form does not take.
					for _, target := range []float64{0, -1e-10, math.Inf(1), math.NaN(), dLo, dHi} {
						check(randSteps(), target)
					}
					// Adversarial targets: the delay at a midpoint the search
					// tests, and its neighbours 1–3 ulps away.
					base := pr.d.At(uni(lo, hi))
					var path []float64
					minSatisfying(lo, hi, r.maxSteps, func(w float64) bool {
						path = append(path, w)
						return pr.d.At(w) <= base
					})
					for k := 0; k < 2 && len(path) > 2; k++ {
						at := pr.d.At(path[2+rng.Intn(len(path)-2)])
						checkNear(r.maxSteps, at)
						checkNear(randSteps(), at)
					}
					// Threshold targets: the first target at which wTrue (or
					// wFalse) reaches a grid point of an exact grid, and its
					// neighbours.
					steps := randSteps()
					grid := newBisectGrid(lo, hi, steps)
					if grid.step == 0 {
						continue
					}
					gp := lo + float64(1+rng.Int63n(grid.n-1))*grid.step
					for _, pick := range []func(*delay.Prepared, float64) float64{
						(*delay.Prepared).BracketTrue,
						(*delay.Prepared).BracketFalse,
					} {
						target, found := thresholdCrossing(&pr.d, gp, pick)
						if !found {
							continue
						}
						if pr.d.BracketTrue(target) == gp || pr.d.BracketFalse(target) == gp {
							onGrid++
						}
						checkNear(steps, target)
					}
				}
			}
		}
	}
	t.Logf("%d searches, %d mismatches; %d out of reach, %d at lo, %d bisected: %d by the direct cell, %d by the loop on an exact grid, %d by the loop on an inexact grid; %d tested widths decided by the closed form, %d left to At; %d thresholds exactly on a grid point",
		searches, mismatches, noReach, atLo, direct+loopExact+loopInexact, direct, loopExact, loopInexact, decided, undecided, onGrid)
	if searches < 1_000_000 {
		t.Errorf("%d searches, want at least 10⁶", searches)
	}
	for name, n := range map[string]int{
		"PO": po, "non-PO": nonPO, "f_ii = 1": single, "f_ii > 1": multi, "stalled": stalled,
		"per-gate Vdd trial": perGate, "out-of-reach search": noReach, "search ending at lo": atLo,
		"direct cell": direct, "loop on an exact grid": loopExact, "loop on an inexact grid": loopInexact,
		"closed-form decision": decided, "At fallback": undecided, "threshold on a grid point": onGrid,
	} {
		if n == 0 {
			t.Errorf("no %s was checked", name)
		}
	}
}

// thresholdCrossing returns the smallest target at which the threshold pick
// returns for d is at most w, found by bisecting the float order of targets
// near the delay at w, and false when the threshold does not cross w there.
// Both thresholds fall as the target rises; a NaN threshold counts as +Inf.
func thresholdCrossing(d *delay.Prepared, w float64, pick func(*delay.Prepared, float64) float64) (float64, bool) {
	at := d.At(w)
	above := func(b uint64) bool { return !(pick(d, math.Float64frombits(b)) <= w) }
	lo, hi := math.Float64bits(at*(1-1e-6)), math.Float64bits(at*(1+1e-6))
	if !(at > 0 && at <= math.MaxFloat64) || !above(lo) || above(hi) {
		return 0, false
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; above(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(hi), true
}

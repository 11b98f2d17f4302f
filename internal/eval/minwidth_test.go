package eval

import (
	"math"
	"math/rand"
	"testing"

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

// MinWidth decides most of its probes from the closed form c0 + c1/w, so it
// must agree with the bisection that evaluates Eq. A3 term by term at every
// probe: the same width bits, the same verdict and the same counted work,
// over random gates, ranges, depths and targets. The adversarial targets
// equal the delay at a width the search tests, or lie 1–3 ulps from it,
// which only the margin in delay.Prepared.Bracket keeps exact.
func TestMinWidthMatchesBisection(t *testing.T) {
	ranges := [][2]float64{{1, 100}, {1.3, 37.7}}
	var searches, mismatches, noReach, atLo, full int
	var po, nonPO, single, multi, stalled, perGate int
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
					lo, hi := r[0], r[1]
					check := func(steps int, target float64) {
						searches++
						m0 := *eng.Metrics()
						w, ok := pr.MinWidth(lo, hi, steps, target)
						m1 := *eng.Metrics()
						wTrue, wFalse := pr.d.Bracket(target)
						wantW, wantOK := minSatisfying(lo, hi, steps, func(w float64) bool {
							if w >= wTrue || w <= wFalse {
								decided++
							} else {
								undecided++
							}
							return pr.At(w) <= target
						})
						m2 := *eng.Metrics()
						switch {
						case !wantOK:
							noReach++
						case wantW == lo:
							atLo++
						default:
							full++
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
					dLo, dHi := pr.d.At(lo), pr.d.At(hi)
					// Random targets: below, across and above the range's delays.
					for k := 0; k < 4; k++ {
						check(1+rng.Intn(20), uni(0.8, 1.25)*pr.d.At(uni(lo, hi)))
					}
					check(1+rng.Intn(20), uni(0.5, 1)*dHi)
					check(1+rng.Intn(20), uni(1, 2)*dLo)
					// Targets the closed form does not take.
					for _, target := range []float64{0, -1e-10, math.Inf(1), math.NaN(), dLo, dHi} {
						check(1+rng.Intn(20), target)
					}
					// Adversarial targets: the delay at a midpoint the search
					// tests, and its neighbours 1–3 ulps away.
					base := pr.d.At(uni(lo, hi))
					var path []float64
					minSatisfying(lo, hi, 20, func(w float64) bool {
						path = append(path, w)
						return pr.d.At(w) <= base
					})
					for k := 0; k < 2 && len(path) > 2; k++ {
						mid := path[2+rng.Intn(len(path)-2)]
						at := pr.d.At(mid)
						for ulps := -3; ulps <= 3; ulps++ {
							target := at
							for u := 0; u < ulps; u++ {
								target = math.Nextafter(target, math.Inf(1))
							}
							for u := 0; u > ulps; u-- {
								target = math.Nextafter(target, math.Inf(-1))
							}
							check(20, target)
							check(1+rng.Intn(20), target)
						}
					}
				}
			}
		}
	}
	t.Logf("%d searches, %d mismatches; %d out of reach, %d at lo, %d bisected; %d tested widths decided by the closed form, %d left to At",
		searches, mismatches, noReach, atLo, full, decided, undecided)
	if searches < 1_000_000 {
		t.Errorf("%d searches, want at least 10⁶", searches)
	}
	for name, n := range map[string]int{
		"PO": po, "non-PO": nonPO, "f_ii = 1": single, "f_ii > 1": multi, "stalled": stalled,
		"per-gate Vdd trial": perGate, "out-of-reach search": noReach, "search ending at lo": atLo,
		"full bisection": full, "closed-form decision": decided, "At fallback": undecided,
	} {
		if n == 0 {
			t.Errorf("no %s was checked", name)
		}
	}
}

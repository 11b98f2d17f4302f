package eval

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cmosopt/internal/design"
)

// minSatisfying is the oracle: the generic bisection Procedure 2's width
// search ran before the closed-form decisions, which evaluated the
// predicate at every tested point. It finds the approximately smallest x in
// [lo, hi] for which pred(x) is true, assuming pred is false below some
// boundary and true above; the second result is false when even hi fails.
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

// The width kernel decides most of its probes from the closed form
// c0 + c1/w, inline or in its cold path, and on an exact grid takes the
// bisection's final cell directly, so every gate-pass must agree with the
// bisection that evaluates Eq. A3 term by term (GateDelayAt) at every
// probe: the same width bits, the same settled delay bits and the same
// counted work, over random gates, operating points, ranges, depths and
// targets. The nets carry sampled wire lengths; a third of the trials set
// per-gate supplies and a quarter stall multi-input gates. The ranges
// include exact grids, a range exact at 12 halvings but not at 13, and
// inexact grids, which take the cold path's loop.
//
// Each check is one width pass, verified gate by gate afterwards with the
// fanin delays the pass produced. A round of passes first sets random
// targets, then, level by level, re-targets one level's gates from the
// fanin delays the previous pass gave them, which the re-targeting leaves
// unchanged: the delay at a midpoint the search tests, or the first target
// at which a threshold reaches a grid point of an exact grid, each moved
// 0–3 ulps; targets of 0, a negative, +Inf, NaN and the delays at lo and
// hi; or random ones. Only the margin in the thresholds keeps the first
// kind exact; the second is where the direct cell's two comparisons
// decide.
func TestMinWidthMatchesBisection(t *testing.T) {
	ranges := []struct {
		lo, hi   float64
		maxSteps int // passes take 1 … maxSteps halvings
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
	var po, nonPO, single, multi, stalled, perGate, onGrid, adversarial int
	var decided, undecided int // tested widths the closed form decides, and those it leaves to the sum
	for seed := int64(1); seed <= 4; seed++ {
		c, eng, dm, _ := buildCase(t, seed)
		cs := eng.cs
		tech := eng.Tech
		s := eng.WidthScratch()
		n := len(s.Target)
		pos := make([]int, c.N())
		for i := range n {
			pos[s.ID(i)] = i
		}
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
			pre := slices.Clone(a.W)
			// The assignment every gate-pass of one width pass sees: the
			// fanouts of a gate are sized after it, so their widths are the
			// widths before the pass.
			ap := &design.Assignment{Vdd: a.Vdd, VddPer: a.VddPer, Vts: a.Vts, W: pre}
			for _, r := range ranges {
				lo, hi := r.lo, r.hi
				steps := 1 + rng.Intn(r.maxSteps)
				ws := widthSolve{
					s: s, a: ap, lo: lo, hi: hi, steps: steps,
					grid:   newBisectGrid(lo, hi, steps),
					closed: true,
				}
				// maxIn returns the largest fanin delay the last pass gave
				// gate-pass i.
				maxIn := func(i int) float64 {
					m := 0.0
					for _, f := range cs.Fanins(s.ID(i)) {
						if cs.IsLogic[f] && s.Delay[pos[f]] > m {
							m = s.Delay[pos[f]]
						}
					}
					return m
				}
				// terms prepares gate-pass i as the cold path does, with
				// the widths before the pass and the given fanin delay.
				terms := func(i int, in float64) *gateTerms {
					id := int(s.ID(i))
					for j := range s.w {
						s.w[j] = pre[s.ID(j)]
					}
					eng.widthRow(ap.VddAt(id), ap.Vts[id])
					g := new(gateTerms)
					eng.prepareTerms(g, &ws, i, in)
					return g
				}
				// thresholds returns g's two thresholds for target, NaN
				// where they decide nothing.
				thresholds := func(g *gateTerms, target float64) (float64, float64) {
					if g.stalled || !g.affine || !(target > 0 && target <= math.MaxFloat64) {
						return math.NaN(), math.NaN()
					}
					return bracketTrue(g.c0, g.c1, target), bracketFalse(g.c0, g.c1, target)
				}
				// pass runs one width pass from the widths before it and
				// checks every gate-pass against the bisection.
				pass := func() {
					copy(a.W, pre)
					m0 := *eng.Metrics()
					eng.SizeWidths(s, a, lo, hi, steps, 1)
					m1 := *eng.Metrics()
					var wantProbes int64
					for i := range n {
						id := int(s.ID(i))
						in := maxIn(i)
						k := dm.CoeffsAt(ap.VddAt(id), ap.Vts[id])
						at := func(w float64) float64 { return dm.GateDelayAt(id, ap, w, -1, 0, in, k) }
						target := s.Target[i]
						g := terms(i, in)
						wTrue, wFalse := thresholds(g, target)
						var probes int64
						wantW, wantOK := minSatisfying(lo, hi, steps, func(w float64) bool {
							probes++
							if w >= wTrue || w <= wFalse {
								decided++
							} else {
								undecided++
							}
							return at(w) <= target
						})
						if !wantOK {
							dBest := at(hi)
							probes++
							wantW, _ = minSatisfying(lo, hi, steps, func(w float64) bool {
								probes++
								return at(w) <= dBest*1.1
							})
						}
						wantProbes += probes
						wantTd := at(wantW)
						searches++
						_, cell := ws.grid.final(wTrue, wFalse)
						switch {
						case !wantOK:
							noReach++
						case wantW == lo:
							atLo++
						case cell && lo <= wFalse:
							direct++
						case ws.grid.step > 0:
							loopExact++
						default:
							loopInexact++
						}
						switch {
						case math.IsInf(at(1), 1):
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
						if math.Float64bits(a.W[id]) != math.Float64bits(wantW) ||
							math.Float64bits(s.Delay[i]) != math.Float64bits(wantTd) {
							mismatches++
							if mismatches <= 5 {
								t.Errorf("gate %d [%v, %v] steps %d target %v (%#x): width %v, delay %v; bisection %v (reached %v), delay %v",
									id, lo, hi, steps, target, math.Float64bits(target), a.W[id], s.Delay[i], wantW, wantOK, wantTd)
							}
						}
						if wantOK && !(wantTd <= target) {
							t.Errorf("gate %d: width %v, whose delay %v misses the target %v", id, wantW, wantTd, target)
						}
					}
					probes, calls := m1.WidthProbes-m0.WidthProbes, m1.GateDelayCalls-m0.GateDelayCalls
					lookups := m1.CoeffHits + m1.CoeffMisses - m0.CoeffHits - m0.CoeffMisses
					if probes != wantProbes || calls != wantProbes+int64(n) || lookups != int64(n) {
						mismatches++
						t.Errorf("[%v, %v] steps %d: %d probes, %d gate-delay calls, %d lookups; bisection %d, %d, %d",
							lo, hi, steps, probes, calls, lookups, wantProbes, wantProbes+int64(n), n)
					}
				}

				// Random targets around each gate's delay at no fanin delay.
				for i := range n {
					id := int(s.ID(i))
					k := dm.CoeffsAt(ap.VddAt(id), ap.Vts[id])
					s.Target[i] = uni(0.8, 1.5) * dm.GateDelayAt(id, ap, uni(lo, hi), -1, 0, 0, k)
				}
				pass()
				for l := 1; l < cs.NumLevels(); l++ {
					for i := range n {
						if int(cs.Level[s.ID(i)]) != l {
							continue
						}
						adversarial++
						g := terms(i, maxIn(i))
						s.Target[i] = pickTarget(rng, g, &ws, lo, hi, steps, &onGrid)
					}
					pass()
				}
			}
		}
	}
	t.Logf("%d gate-passes (%d re-targeted), %d mismatches; %d out of reach, %d at lo, %d bisected: %d by the direct cell, %d by the loop on an exact grid, %d by the loop on an inexact grid; %d tested widths decided by the closed form, %d left to the sum; %d thresholds exactly on a grid point",
		searches, adversarial, mismatches, noReach, atLo, direct+loopExact+loopInexact, direct, loopExact, loopInexact, decided, undecided, onGrid)
	if searches < 1_000_000 {
		t.Errorf("%d gate-passes checked, want at least 10⁶", searches)
	}
	for name, n := range map[string]int{
		"PO": po, "non-PO": nonPO, "f_ii = 1": single, "f_ii > 1": multi, "stalled": stalled,
		"per-gate Vdd trial": perGate, "out-of-reach search": noReach, "search ending at lo": atLo,
		"direct cell": direct, "loop on an exact grid": loopExact, "loop on an inexact grid": loopInexact,
		"closed-form decision": decided, "fallback to the sum": undecided, "threshold on a grid point": onGrid,
	} {
		if n == 0 {
			t.Errorf("no %s was checked", name)
		}
	}
}

// pickTarget returns an adversarial target for the prepared gate g: the
// delay at a midpoint a bisection of [lo, hi] in steps halvings tests, the
// first target at which one of g's thresholds reaches a grid point (on an
// exact grid), each moved 0–3 ulps either way; a special value; or a random
// target across the range's delays. It counts thresholds landing exactly
// on a grid point in onGrid.
func pickTarget(rng *rand.Rand, g *gateTerms, ws *widthSolve, lo, hi float64, steps int, onGrid *int) float64 {
	uni := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	nudge := func(tg float64) float64 {
		for u := rng.Intn(7) - 3; u != 0; {
			if u > 0 {
				tg, u = math.Nextafter(tg, math.Inf(1)), u-1
			} else {
				tg, u = math.Nextafter(tg, math.Inf(-1)), u+1
			}
		}
		return tg
	}
	switch rng.Intn(6) {
	case 0: // the delay at a midpoint the search tests
		base := g.at(uni(lo, hi))
		var path []float64
		minSatisfying(lo, hi, steps, func(w float64) bool {
			path = append(path, w)
			return g.at(w) <= base
		})
		if len(path) > 2 {
			return nudge(g.at(path[2+rng.Intn(len(path)-2)]))
		}
	case 1: // a threshold on a grid point
		if ws.grid.step == 0 || g.stalled || !g.affine {
			break
		}
		gp := lo + float64(1+rng.Int63n(ws.grid.n-1))*ws.grid.step
		pick := func(tg float64) float64 { return bracketTrue(g.c0, g.c1, tg) }
		if rng.Intn(2) == 0 {
			pick = func(tg float64) float64 { return bracketFalse(g.c0, g.c1, tg) }
		}
		if tg, ok := thresholdCrossing(g.at(gp), gp, pick); ok {
			if bracketTrue(g.c0, g.c1, tg) == gp || bracketFalse(g.c0, g.c1, tg) == gp {
				*onGrid++
			}
			return nudge(tg)
		}
	case 2: // a target the closed form does not take
		return []float64{0, -1e-10, math.Inf(1), math.NaN(), g.at(lo), g.at(hi)}[rng.Intn(6)]
	case 3: // below the range's delays
		return uni(0.5, 1) * g.at(hi)
	case 4: // above them
		return uni(1, 2) * g.at(lo)
	}
	return uni(0.8, 1.25) * g.at(uni(lo, hi))
}

// thresholdCrossing returns the smallest target at which the threshold pick
// returns is at most w, found by bisecting the float order of targets near
// at, the delay at w, and false when the threshold does not cross w there.
// Both thresholds fall as the target rises; a NaN threshold counts as +Inf.
func thresholdCrossing(at, w float64, pick func(float64) float64) (float64, bool) {
	above := func(b uint64) bool { return !(pick(math.Float64frombits(b)) <= w) }
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

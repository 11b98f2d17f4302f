package eval

import (
	"math"
	"math/rand"
	"testing"

	"cmosopt/internal/design"
)

// relClose reports whether got matches want within 1e-12 relative tolerance
// (infinities of the same sign match exactly — unswitchable operating points
// have +Inf delay).
func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) || math.IsNaN(want) || math.IsNaN(got) {
		return false
	}
	scale := math.Max(math.Abs(got), math.Abs(want))
	return math.Abs(got-want) <= 1e-12*scale
}

// TestIncrementalMatchesFull drives random edit sequences (widths, per-gate
// thresholds, global supply and threshold moves) against bound engines on
// random circuits and checks after every edit that the incrementally
// maintained state matches a from-scratch recomputation within 1e-12
// relative tolerance: per-gate delays, arrivals, critical delay and slacks.
func TestIncrementalMatchesFull(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			c, eng, dm, _ := buildCase(t, 100+seed)
			tech := eng.Tech
			rng := rand.New(rand.NewSource(seed))

			a := design.Uniform(c.N(), 1.5, 0.35, 4)
			eng.Bind(a)

			randW := func() float64 {
				return tech.WMin + rng.Float64()*(tech.WMax-tech.WMin)
			}
			randVts := func() float64 {
				return tech.VtsMin + rng.Float64()*(tech.VtsMax-tech.VtsMin)
			}
			randVdd := func() float64 {
				return tech.VddMin + rng.Float64()*(tech.VddMax-tech.VddMin)
			}

			for step := 0; step < 120; step++ {
				id := rng.Intn(c.N())
				switch rng.Intn(5) {
				case 0, 1, 2: // width edits dominate real optimizer traffic
					eng.SetWidth(id, randW())
				case 3: // global moves re-bind: every gate is stale
					a.Vdd = randVdd()
					eng.Bind(a)
				default:
					a.SetVts(randVts())
					eng.Bind(a)
				}

				// Reference: the pure model evaluators, from scratch.
				wantArr, wantTd := dm.Arrivals(a)
				gotTd, gotArr := eng.BoundDelays(), eng.curArr
				for i := range wantTd {
					if !relClose(gotTd[i], wantTd[i]) {
						t.Fatalf("seed %d step %d: gate %d delay %v, want %v", seed, step, i, gotTd[i], wantTd[i])
					}
					if !relClose(gotArr[i], wantArr[i]) {
						t.Fatalf("seed %d step %d: gate %d arrival %v, want %v", seed, step, i, gotArr[i], wantArr[i])
					}
				}
				if got, want := eng.BoundCriticalDelay(), dm.CriticalDelay(a); !relClose(got, want) {
					t.Fatalf("seed %d step %d: critical delay %v, want %v", seed, step, got, want)
				}
				if step%10 == 0 {
					T := 5e-9
					wantSl := dm.Slacks(a, T)
					gotSl := eng.BoundSlacks(T)
					for i := range wantSl {
						if !relClose(gotSl[i], wantSl[i]) {
							t.Fatalf("seed %d step %d: gate %d slack %v, want %v", seed, step, i, gotSl[i], wantSl[i])
						}
					}
				}
			}
		})
	}
}

// TestIncrementalSkipsUntouchedCone checks the economics, not just the
// answer: a width edit at a primary-output gate must not re-evaluate the
// whole circuit.
func TestIncrementalSkipsUntouchedCone(t *testing.T) {
	c, eng, _, _ := buildCase(t, 42)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	eng.Bind(a)

	// Pick a PO-driving gate with no internal fanout: its cone is itself plus
	// its logic fanins.
	target := -1
	for _, id := range c.POs {
		if c.Gate(id).IsLogic() && eng.cs.NumFanout(int32(id)) == 0 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Skip("no fanout-free PO gate in this circuit")
	}
	*eng.Metrics() = Metrics{}
	eng.SetWidth(target, a.W[target]*2)
	m := eng.Metrics()

	// Upper bound: everything fanout-reachable from the edited gate or its
	// logic fanins (whose loads changed). Anything beyond that would mean the
	// engine re-evaluated gates the edit cannot influence.
	reach := make([]bool, c.N())
	var mark func(id int)
	mark = func(id int) {
		if reach[id] {
			return
		}
		reach[id] = true
		for _, f := range eng.cs.Fanouts(int32(id)) {
			mark(int(f))
		}
	}
	mark(target)
	cone := int64(0)
	for _, f := range c.Gate(target).Fanin {
		if c.Gates[f].IsLogic() {
			mark(int(f))
		}
	}
	for id, r := range reach {
		if r && c.Gate(id).IsLogic() {
			cone++
		}
	}
	if m.DirtyGates > cone {
		t.Errorf("edit at sink gate dirtied %d gates, cone bound is %d", m.DirtyGates, cone)
	}
	if m.GateDelayCalls > cone {
		t.Errorf("edit at sink gate cost %d delay calls, cone bound is %d", m.GateDelayCalls, cone)
	}
	if cone >= int64(c.NumLogic()) {
		t.Logf("cone covers the whole circuit; bound is vacuous for this seed")
	}
	if m.FullDelaySweeps != 0 {
		t.Errorf("incremental edit triggered %d full sweeps", m.FullDelaySweeps)
	}
}

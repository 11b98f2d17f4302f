package eval

import (
	"sync"
	"testing"

	"cmosopt/internal/design"
)

// Base and step voltages (V) of the concurrent-sweep test.
const (
	baseVdd = 1.2
	stepVdd = 0.1
	baseVts = 0.25
	stepVts = 0.02
)

func TestCloneMatchesParent(t *testing.T) {
	c, eng, _, _ := buildCase(t, 11)
	a := design.Uniform(c.N(), 1.6, 0.32, 4)
	cl := eng.Clone()

	wantCd, wantE := eng.CriticalDelay(a), eng.Energy(a)
	if got := cl.CriticalDelay(a); got != wantCd {
		t.Errorf("clone critical delay %v, parent %v", got, wantCd)
	}
	if got := cl.Energy(a); got != wantE {
		t.Errorf("clone energy %v, parent %v", got, wantE)
	}
	// Clone metrics start fresh and do not leak into the parent.
	if cl.Metrics().GateDelayCalls == 0 {
		t.Error("clone performed work but counted nothing")
	}
	before := eng.Metrics().GateDelayCalls
	cl.CriticalDelay(a)
	if eng.Metrics().GateDelayCalls != before {
		t.Error("clone work billed to the parent's counters")
	}
}

func TestClonesEvaluateConcurrently(t *testing.T) {
	// N clones sweep different operating points of the same circuit at once;
	// each must agree with a serial evaluation of its own point. Run under
	// -race this also checks that clones share no mutable state.
	c, eng, _, _ := buildCase(t, 12)
	const workers = 8
	type out struct{ cd, e float64 }
	got := make([]out, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			cl := eng.Clone()
			a := design.Uniform(c.N(), baseVdd+stepVdd*float64(w%4), baseVts+stepVts*float64(w), 4)
			got[w] = out{cl.CriticalDelay(a), cl.Energy(a).Total()}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		a := design.Uniform(c.N(), baseVdd+stepVdd*float64(w%4), baseVts+stepVts*float64(w), 4)
		if cd := eng.CriticalDelay(a); cd != got[w].cd {
			t.Errorf("worker %d critical delay %v, serial %v", w, got[w].cd, cd)
		}
		if e := eng.Energy(a).Total(); e != got[w].e {
			t.Errorf("worker %d energy %v, serial %v", w, got[w].e, e)
		}
	}
}

// TestCloneCachesArePrivate pins the coefficient cache's ownership: each
// engine prices its own pairs, so a pair first priced on a clone is still a
// miss on its parent, and the other way round.
func TestCloneCachesArePrivate(t *testing.T) {
	c, eng, _, _ := buildCase(t, 13)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	eng.Clone().Delays(a)
	eng.Delays(a)
	if m := eng.Metrics().CoeffMisses; m != 1 {
		t.Errorf("parent: %d coefficient misses on a pair a clone priced first, want 1", m)
	}
	cl := eng.Clone()
	cl.Delays(a)
	if m := cl.Metrics().CoeffMisses; m != 1 {
		t.Errorf("clone: %d coefficient misses on a pair its parent priced first, want 1", m)
	}
}

// An engine and its clones share one width table, which the first of them
// to sweep builds — here two clones of a fresh engine sweeping at once (run
// under -race) — and each holds its own scratch over it.
func TestClonesShareWidthTable(t *testing.T) {
	c, eng, _, _ := buildCase(t, 14)
	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	clones := []*Engine{eng.Clone(), eng.Clone()}
	got := make([]float64, len(clones))
	var wg sync.WaitGroup
	for i, cl := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = cl.CriticalDelay(a)
		}()
	}
	wg.Wait()
	s := eng.WidthScratch()
	if s.t == nil {
		t.Fatal("no width table")
	}
	want := eng.CriticalDelay(a)
	for i, cl := range clones {
		cs := cl.WidthScratch()
		if cs.t != s.t {
			t.Errorf("clone %d sweeps on table %p, its parent on %p: want one shared table", i, cs.t, s.t)
		}
		if cs == s || cs == clones[1-i].WidthScratch() {
			t.Errorf("clone %d shares its scratch", i)
		}
		if got[i] != want {
			t.Errorf("clone %d critical delay %v, parent %v", i, got[i], want)
		}
	}
}

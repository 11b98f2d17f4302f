package eval

import (
	"testing"

	"cmosopt/internal/design"
	"cmosopt/internal/obs"
)

// TestObsDoesNotChangeResults is the instrumentation safety contract: an
// engine with a sink attached must produce bit-identical numbers to one
// without.
func TestObsDoesNotChangeResults(t *testing.T) {
	c, plain, _, _ := buildCase(t, 11)
	_, instr, _, _ := buildCase(t, 11)
	instr.AttachObs(obs.NewRegistry())

	a := design.Uniform(c.N(), 1.4, 0.32, 4)
	wantTd, gotTd := plain.Delays(a), instr.Delays(a)
	for i := range wantTd {
		if gotTd[i] != wantTd[i] {
			t.Fatalf("gate %d delay diverged under instrumentation: %v vs %v", i, gotTd[i], wantTd[i])
		}
	}
	if got, want := instr.Energy(a), plain.Energy(a); got != want {
		t.Fatalf("energy diverged under instrumentation: %+v vs %+v", got, want)
	}
	plain.Bind(a.Clone())
	instr.Bind(a.Clone())
	for id := range c.Gates {
		if c.Gates[id].IsLogic() {
			plain.SetWidth(id, 2.5)
			instr.SetWidth(id, 2.5)
			break
		}
	}
	if got, want := instr.BoundCriticalDelay(), plain.BoundCriticalDelay(); got != want {
		t.Fatalf("bound critical delay diverged: %v vs %v", got, want)
	}
}

func TestFlushObsExportsDeltas(t *testing.T) {
	c, eng, _, _ := buildCase(t, 12)
	reg := obs.NewRegistry()
	eng.AttachObs(reg)

	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	eng.Delays(a)
	eng.Energy(a)
	eng.FlushObs()

	if v := reg.Counter("eval.full_delay_sweeps").Value(); v != 1 {
		t.Errorf("full_delay_sweeps = %d, want 1", v)
	}
	if v := reg.Counter("eval.full_energy_sweeps").Value(); v != 1 {
		t.Errorf("full_energy_sweeps = %d, want 1", v)
	}
	if v := reg.Counter("eval.gate_delay_calls").Value(); v < int64(c.NumLogic()) {
		t.Errorf("gate_delay_calls = %d, want >= %d", v, c.NumLogic())
	}
	if v := reg.Counter("eval.cache.entries").Value(); v < 1 {
		t.Errorf("cache.entries = %d, want >= 1", v)
	}

	// A second flush with no new work must add nothing: counters are deltas
	// against the per-engine baseline.
	before := reg.Counter("eval.gate_delay_calls").Value()
	eng.FlushObs()
	if v := reg.Counter("eval.gate_delay_calls").Value(); v != before {
		t.Errorf("idle flush moved gate_delay_calls %d -> %d", before, v)
	}

	// The live histograms record without flushing.
	snap := reg.Snapshot()
	h, ok := snap.Histograms["eval.full_sweep_ns"]
	if !ok || h.Count < 1 {
		t.Errorf("eval.full_sweep_ns histogram missing or empty: %+v", h)
	}
}

func TestFlushObsOnlyFromPrimary(t *testing.T) {
	c, eng, _, _ := buildCase(t, 13)
	reg := obs.NewRegistry()
	eng.AttachObs(reg)

	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	clone := eng.Clone()
	clone.Delays(a)
	clone.FlushObs() // must be a no-op: clones are absorbed by their parent
	if v := reg.Counter("eval.full_delay_sweeps").Value(); v != 0 {
		t.Fatalf("clone flush exported %d sweeps, want 0", v)
	}

	// The driver pattern: absorb the clone's Metrics, then flush the parent.
	eng.Metrics().Add(*clone.Metrics())
	eng.FlushObs()
	if v := reg.Counter("eval.full_delay_sweeps").Value(); v != 1 {
		t.Fatalf("after absorb+flush, full_delay_sweeps = %d, want 1", v)
	}
}

func TestAttachObsDetach(t *testing.T) {
	c, eng, _, _ := buildCase(t, 14)
	reg := obs.NewRegistry()
	eng.AttachObs(reg)
	eng.AttachObs(nil)

	a := design.Uniform(c.N(), 1.5, 0.35, 4)
	eng.Delays(a)
	eng.FlushObs() // detached: must not panic, must export nothing
	if v := reg.Counter("eval.full_delay_sweeps").Value(); v != 0 {
		t.Fatalf("detached engine exported %d sweeps", v)
	}
}

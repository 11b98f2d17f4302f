package cli

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cmosopt/internal/core"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/obs"
	"cmosopt/internal/wiring"
)

// pollRecorder is a run context that never cancels. Each poll (a call to
// Err) reads how much work the run did since the previous poll: full delay
// sweeps, from the count of the registry's eval.full_sweep_ns histogram,
// which every engine of the run and every clone records into as it sweeps;
// and, when calls is set, gate-delay calls of the one engine calls reads.
// It keeps the largest gap of each.
type pollRecorder struct {
	context.Context
	sweeps *obs.Histogram
	calls  func() int64

	mu                    sync.Mutex
	polls                 int
	lastSweeps, lastCalls int64
	maxSweeps, maxCalls   int64
}

func newPollRecorder(reg *obs.Registry) *pollRecorder {
	return &pollRecorder{Context: context.Background(), sweeps: reg.Histogram("eval.full_sweep_ns")}
}

func (r *pollRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.polls++
	r.mark()
	return nil
}

// mark closes the gap that ends now. The run's start and its return close a
// gap too, so work before the first poll and after the last one counts.
func (r *pollRecorder) mark() {
	s := r.sweeps.Snapshot().Count
	r.maxSweeps = max(r.maxSweeps, s-r.lastSweeps)
	r.lastSweeps = s
	if r.calls != nil {
		c := r.calls()
		r.maxCalls = max(r.maxCalls, c-r.lastCalls)
		r.lastCalls = c
	}
}

// restart forgets the work done so far: what follows is the measured run.
func (r *pollRecorder) restart() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mark()
	r.polls, r.maxSweeps, r.maxCalls = 0, 0, 0
}

// finish closes the gap after the last poll and returns the run's polls and
// largest gaps.
func (r *pollRecorder) finish() (polls int, sweeps, calls int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mark()
	return r.polls, r.maxSweeps, r.maxCalls
}

// maxSweepGap bounds the full delay sweeps a run makes between two polls of
// its context, and after its last poll: one candidate's width solve, or the
// two sweeps with which finishResult prices the design it returns. A
// canceled served job therefore stops within that much work.
const maxSweepGap = 2

// sensitivityStepCalls pins the gate-delay calls between two polls of the
// sensitivity mode on s298. Its greedy steps run on the incremental engine
// and make no full sweep, so the sweep bound says nothing about them; the
// sizer polls once per step, and this is the costliest step's count: the
// override probes that choose one move plus the incremental re-time that
// applies it.
const sensitivityStepCalls = 683

// TestPollGap measures how much work every optimizer mode and study runs
// between two cancellation polls, on s298 with one worker: each run's
// context is a pollRecorder over its own registry. Every mode of the mode
// table runs (multivt at two and at three thresholds), so a new mode is
// measured without an edit, and so are WarmStart and the three studies that
// fan whole runs out.
func TestPollGap(t *testing.T) {
	circ, err := netgen.LoadNamed("s298")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	spec := func(reg *obs.Registry, rec *pollRecorder) core.Spec {
		return core.Spec{
			Circuit: circ, Tech: device.Default350(), Wiring: wiring.Default350(),
			Fc: 300e6, Skew: 0.95, InputProb: 0.5, InputDensity: 0.5,
			Obs: reg, Ctx: rec,
		}
	}
	// measure runs one optimizer call on a fresh registry and recorder. A run
	// that needs set-up work (a previous design, a baseline) does it first
	// and then restarts the recorder, so only the call is measured.
	measure := func(name string, run func(s core.Spec, rec *pollRecorder) error) {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rec := newPollRecorder(reg)
			if err := run(spec(reg, rec), rec); err != nil {
				t.Fatal(err)
			}
			polls, sweeps, calls := rec.finish()
			t.Logf("%d polls; at most %d full sweeps between polls", polls, sweeps)
			if sweeps > maxSweepGap {
				t.Errorf("%d full delay sweeps between two polls, want at most %d", sweeps, maxSweepGap)
			}
			if rec.calls != nil {
				t.Logf("at most %d gate-delay calls between polls", calls)
				if calls != sensitivityStepCalls {
					t.Errorf("%d gate-delay calls between two polls, want one greedy step's %d", calls, sensitivityStepCalls)
				}
			}
		})
	}
	for _, m := range modes {
		nvs := []int{0}
		if m.name == "multivt" {
			nvs = []int{2, 3}
		}
		for _, nv := range nvs {
			name := m.name
			if nv > 0 {
				name = fmt.Sprintf("%s-nv%d", name, nv)
			}
			measure(name, func(s core.Spec, rec *pollRecorder) error {
				p, err := core.NewProblem(s)
				if err != nil {
					return err
				}
				if m.name == "sensitivity" {
					rec.calls = func() int64 { return p.Eval.Metrics().GateDelayCalls }
				}
				rec.restart()
				_, err = m.run(p, opts, nv)
				return err
			})
		}
	}
	measure("warmstart", func(s core.Spec, rec *pollRecorder) error {
		p, err := core.NewProblem(s)
		if err != nil {
			return err
		}
		prev, err := p.OptimizeJoint(opts)
		if err != nil {
			return err
		}
		rec.restart()
		_, _, _, err = p.WarmStart(circ, prev.Assignment, opts)
		return err
	})
	measure("edp", func(s core.Spec, rec *pollRecorder) error {
		_, _, err := core.EDPStudy(s, []float64{200e6, 300e6}, opts)
		return err
	})
	measure("variation", func(s core.Spec, rec *pollRecorder) error {
		p, err := core.NewProblem(s)
		if err != nil {
			return err
		}
		base, err := p.OptimizeBaseline(opts)
		if err != nil {
			return err
		}
		rec.restart()
		_, err = p.VariationStudy([]float64{0, 0.1}, opts, base)
		return err
	})
	measure("slack", func(s core.Spec, rec *pollRecorder) error {
		_, err := core.SlackStudy(s, []float64{0.85, 0.95}, opts)
		return err
	})
}

package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// countdownCtx is a deterministic cancellation source: Err returns nil for
// the first `left` polls and context.Canceled afterwards. It lets tests
// cancel "mid-optimization" at an exact poll count instead of racing a
// timer against the optimizer.
type countdownCtx struct {
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func ctxSpec(t *testing.T, name string, ctx context.Context) Spec {
	t.Helper()
	c, err := netgen.LoadNamed(name)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Circuit:      c,
		Tech:         device.Default350(),
		Wiring:       wiring.Default350(),
		Fc:           300e6,
		Skew:         0.95,
		InputProb:    0.5,
		InputDensity: 0.5,
		Ctx:          ctx,
	}
}

func TestOptimizeJointCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := NewProblem(ctxSpec(t, "s27", ctx))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"joint", "baseline", "baseline-3.3", "sensitivity"} {
		if _, err := walkerRuns[name](p, DefaultOptions()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with pre-canceled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestOptimizeJointCancelMidRun(t *testing.T) {
	// Allow a handful of polls, then cancel: the run must abort with the
	// context error, not return a (partial) result.
	p, err := NewProblem(ctxSpec(t, "s298", &countdownCtx{left: 5}))
	if err != nil {
		t.Fatal(err)
	}
	evBefore := p.Evaluations()
	res, err := p.OptimizeJoint(DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v (res=%v), want context.Canceled", err, res)
	}
	// Prompt abort: a full joint run costs hundreds of evaluation
	// equivalents; five polls' worth must stay well under that.
	opts := DefaultOptions()
	full := opts.M * opts.M
	if used := p.Evaluations() - evBefore; used >= full {
		t.Fatalf("canceled run consumed %d evaluation equivalents, want < %d", used, full)
	}
}

func TestOptimizeBaselineCancel(t *testing.T) {
	for _, name := range []string{"baseline", "sensitivity"} {
		p, err := NewProblem(ctxSpec(t, "s27", &countdownCtx{left: 2}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := walkerRuns[name](p, DefaultOptions()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancel: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestOptimizeAnnealCancel(t *testing.T) {
	p, err := NewProblem(ctxSpec(t, "s27", &countdownCtx{left: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OptimizeAnneal(); !errors.Is(err, context.Canceled) {
		t.Fatalf("anneal cancel: err = %v, want context.Canceled", err)
	}
}

func TestEDPStudyCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := ctxSpec(t, "s27", ctx)
	if _, _, err := EDPStudy(spec, []float64{100e6, 200e6}, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("EDP study cancel: err = %v, want context.Canceled", err)
	}
}

// TestVariationStudyCancel: a variation study on a canceled problem must
// report the cancellation at every worker count, not a sweep of infeasible
// points.
func TestVariationStudyCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewProblem(ctxSpec(t, "s27", ctx))
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.OptimizeBaseline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for _, w := range []int{1, 2} {
		o := DefaultOptions()
		o.Workers = w
		if pts, err := p.VariationStudy([]float64{0, 0.1}, o, base); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: VariationStudy after cancel: err = %v (points %+v), want context.Canceled", w, err, pts)
		}
	}
}

// TestSlackStudyCancel: a cancel that lands after the reference baseline
// (about 25 polls on s27) must fail the slack study, not turn its joint runs
// into infeasible points.
func TestSlackStudyCancel(t *testing.T) {
	for _, left := range []int{40, 200} {
		spec := ctxSpec(t, "s27", &countdownCtx{left: left})
		if pts, err := SlackStudy(spec, []float64{0.7, 0.85, 0.95}, DefaultOptions()); !errors.Is(err, context.Canceled) {
			t.Errorf("cancel after %d polls: err = %v (points %+v), want context.Canceled", left, err, pts)
		}
	}
}

// TestYieldStudyCancel: a Monte-Carlo study on a canceled problem must
// report the cancellation at every worker count, not price every die and
// return a result.
func TestYieldStudyCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := NewProblem(ctxSpec(t, "s27", ctx))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for _, w := range []int{1, 2} {
		if _, err := p.YieldStudy(res.Assignment, 0.1, 64, 7, w); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: YieldStudy after cancel: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestCancelThenFreshRunByteIdentical is the server-cache safety property:
// a canceled run must leave nothing behind that could perturb a later run
// of the same problem. A fresh elaboration after a mid-run cancel must
// reproduce the uncanceled result bit for bit.
func TestCancelThenFreshRunByteIdentical(t *testing.T) {
	ref, err := NewProblem(ctxSpec(t, "s298", nil))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	canceled, err := NewProblem(ctxSpec(t, "s298", &countdownCtx{left: 7}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := canceled.OptimizeJoint(DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected mid-run cancel, got %v", err)
	}

	fresh, err := NewProblem(ctxSpec(t, "s298", nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.OptimizeJoint(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.Vdd != want.Vdd || got.VtsValues[0] != want.VtsValues[0] {
		t.Fatalf("post-cancel rerun diverged: (Vdd,Vts) = (%v,%v), want (%v,%v)",
			got.Vdd, got.VtsValues[0], want.Vdd, want.VtsValues[0])
	}
	if got.Energy != want.Energy || got.CriticalDelay != want.CriticalDelay {
		t.Fatalf("post-cancel rerun diverged: energy %+v delay %v, want %+v / %v",
			got.Energy, got.CriticalDelay, want.Energy, want.CriticalDelay)
	}
	for i := range want.Assignment.W {
		if got.Assignment.W[i] != want.Assignment.W[i] {
			t.Fatalf("width[%d] = %v, want %v", i, got.Assignment.W[i], want.Assignment.W[i])
		}
	}
}

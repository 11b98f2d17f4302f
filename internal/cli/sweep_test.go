package cli

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"cmosopt/internal/device"
)

func TestSweepCSV(t *testing.T) {
	var out bytes.Buffer
	err := Sweep([]string{"-circuit", "s27", "-points", "3", "-from", "1e8", "-to", "3e8", "-format", "csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header plus one row per sweep point (infeasible points are skipped;
	// s27 at these clocks is feasible everywhere).
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want 4:\n%s", len(lines), out.String())
	}
	if !strings.Contains(out.String(), "<- min EDP") {
		t.Fatalf("no EDP-minimum marker in output:\n%s", out.String())
	}
}

func TestSweepBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-points", "1"},
		{"-from", "0"},
		{"-circuit", "no-such-circuit"},
		{"-format", "xml", "-circuit", "s27", "-points", "2"},
	} {
		var out bytes.Buffer
		if err := Sweep(append([]string{"-circuit", "s27"}, args...), &out); err == nil {
			t.Fatalf("Sweep(%v) succeeded, want error", args)
		}
	}
}

// TestSweepRangeNonFinite refuses a range whose to/from ratio is not finite
// up front, with the range rule's own message, instead of running a study
// at an infinite or NaN clock.
func TestSweepRangeNonFinite(t *testing.T) {
	for _, r := range [][2]string{{"1e-300", "1e300"}, {"NaN", "3e8"}, {"1e8", "NaN"}} {
		var out bytes.Buffer
		err := Sweep([]string{"-circuit", "s27", "-from", r[0], "-to", r[1], "-points", "3"}, &out)
		if err == nil || !strings.Contains(err.Error(), "bad sweep range") {
			t.Errorf("Sweep over [%s, %s]: err = %v, want a bad sweep range", r[0], r[1], err)
		}
	}
}

// TestSweepClockCeiling admits a sweep up to MaxClockHz and refuses one
// that reaches past it.
func TestSweepClockCeiling(t *testing.T) {
	for _, tc := range []struct {
		from, to float64
		ok       bool
	}{
		{1e8, MaxClockHz, true},
		{1e8, 2 * MaxClockHz, false},
		{2 * MaxClockHz, 3 * MaxClockHz, false},
		{MaxClockHz, 1e300, false},
	} {
		p := SweepParams{FromHz: tc.from, ToHz: tc.to, Points: 3}
		err := p.Validate()
		if tc.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), "ceiling") {
			t.Errorf("sweep [%v, %v]: err = %v, want ok %v or a ceiling refusal", tc.from, tc.to, err, tc.ok)
		}
	}
}

// TestRunSweepDeterministic locks the server-vs-offline byte-identity
// contract at its root: two runs with identical parameters (at different
// worker counts, one canceled context-free and one with a live context)
// render identical bytes.
func TestRunSweepDeterministic(t *testing.T) {
	params := SweepParams{Circuit: "s27", FromHz: 1e8, ToHz: 3e8, Points: 3}
	render := func(workers int, ctx context.Context) string {
		p := params
		p.Workers = workers
		ct, pts, best, err := RunSweep(p, device.Default350(), nil, ctx)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := RenderSweep(&b, "csv", SweepTable(ct.Name, 0.5, pts, best)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1, nil)
	parallel := render(0, context.Background())
	if serial != parallel {
		t.Fatalf("worker-count / context presence changed sweep bytes:\n-- serial --\n%s\n-- parallel --\n%s", serial, parallel)
	}
}

func TestRunSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := RunSweep(SweepParams{Circuit: "s27", FromHz: 1e8, ToHz: 3e8, Points: 2}, device.Default350(), nil, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep err = %v, want context.Canceled", err)
	}
}

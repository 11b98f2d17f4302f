package sim

import (
	"math"
	"testing"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/delay"
	"cmosopt/internal/design"
	"cmosopt/internal/device"
	"cmosopt/internal/netgen"
	"cmosopt/internal/wiring"
)

// Value returns the present logic value of a gate.
func (s *Simulator) Value(id int) bool { return s.val[id] }

// Transitions returns the transition count of a gate since the last Settle.
func (s *Simulator) Transitions(id int) int64 { return s.trans[id] }

// PropagationDelay applies one input event at the current state and returns
// the time until the network goes quiet (0 if nothing propagates).
func (s *Simulator) PropagationDelay(inputID int, v bool, horizon float64) (float64, error) {
	start := s.now
	if err := s.SetInput(inputID, v); err != nil {
		return 0, err
	}
	end := s.Run(start + horizon)
	if end < start {
		return 0, nil
	}
	return end - start, nil
}

func setup(t *testing.T, c *circuit.Circuit) (*Simulator, *delay.Evaluator, *design.Assignment) {
	t.Helper()
	tech := device.Default350()
	wire, err := wiring.New(wiring.Default350(), max(c.NumLogic(), 1))
	if err != nil {
		t.Fatal(err)
	}
	de, err := delay.New(c, &tech, wire)
	if err != nil {
		t.Fatal(err)
	}
	a := design.Uniform(c.N(), 1.0, 0.2, 2)
	s, err := New(c, de, a)
	if err != nil {
		t.Fatal(err)
	}
	return s, de, a
}

func chain(t *testing.T, n int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("chain")
	prev := b.Input("in")
	for i := 0; i < n; i++ {
		prev = b.Gate(circuit.Not, "g"+string(rune('0'+i)), prev)
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejects(t *testing.T) {
	seq, _ := circuit.ParseBenchString("seq", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	tech := device.Default350()
	wire, _ := wiring.New(wiring.Default350(), 1)
	de, err := delay.New(chain(t, 1), &tech, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(seq, de, design.Uniform(seq.N(), 1, 0.2, 2)); err == nil {
		t.Error("sequential circuit accepted")
	}
}

func TestEventPropagationMatchesSTA(t *testing.T) {
	// On an inverter chain every path is sensitized by any input edge: the
	// measured propagation equals the STA critical delay exactly.
	c := chain(t, 6)
	s, de, a := setup(t, c)
	s.Settle()
	sta := de.CriticalDelay(a)
	meas, err := s.PropagationDelay(c.PIs[0], !s.Value(c.PIs[0]), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meas-sta)/sta > 1e-9 {
		t.Errorf("measured %v vs STA %v", meas, sta)
	}
}

func TestMeasuredDelayNeverExceedsSTA(t *testing.T) {
	// On a random network, any single-input event settles within the STA
	// bound (STA is the max over all paths and input combinations).
	c, err := netgen.Generate(netgen.Config{Name: "r", Gates: 80, Depth: 8, PIs: 6, POs: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, de, a := setup(t, c)
	sta := de.CriticalDelay(a)
	for trial := 0; trial < 20; trial++ {
		s.Settle()
		in := c.PIs[trial%len(c.PIs)]
		meas, err := s.PropagationDelay(in, !s.Value(in), 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if meas > sta*(1+1e-9) {
			t.Fatalf("trial %d: measured %v exceeds STA bound %v", trial, meas, sta)
		}
	}
}

func TestGlitchVisibilityAndInertialFiltering(t *testing.T) {
	// Two reconvergent AND structures fed by a rising edge on `a`:
	//
	//	fast: yf = AND(a, NOT a)            — the (1,1) overlap lasts one
	//	      inverter delay, shorter than the AND's own delay: the pulse is
	//	      inertially filtered and yf never moves;
	//	slow: ys = AND(a, NOT(NOT(NOT a)))  — the overlap lasts three
	//	      inverter delays, longer than the AND delay: a real glitch (two
	//	      transitions) that zero-delay simulation would never show.
	b := circuit.NewBuilder("gl")
	a := b.Input("a")
	na := b.Gate(circuit.Not, "na", a)
	yf := b.Gate(circuit.And, "yf", a, na)
	n1 := b.Gate(circuit.Not, "n1", a)
	n2 := b.Gate(circuit.Not, "n2", n1)
	n3 := b.Gate(circuit.Not, "n3", n2)
	ys := b.Gate(circuit.And, "ys", a, n3)
	b.Output(yf)
	b.Output(ys)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := setup(t, c)
	s.Settle()
	if s.Value(yf) || s.Value(ys) {
		t.Fatal("AND(a, !a) structures should settle at 0")
	}
	if err := s.SetInput(c.PIs[0], true); err != nil {
		t.Fatal(err)
	}
	s.Run(1e-3)
	if s.Value(yf) || s.Value(ys) {
		t.Error("outputs must return to 0")
	}
	if got := s.Transitions(yf); got != 0 {
		t.Errorf("fast path transitions = %d, want 0 (inertially filtered)", got)
	}
	if got := s.Transitions(ys); got != 2 {
		t.Errorf("slow path transitions = %d, want 2 (visible glitch)", got)
	}
}

func TestTimedActivityAtLeastZeroDelay(t *testing.T) {
	// Glitching can only add transitions: the timed per-gate activity summed
	// over the network must be at least the zero-delay Monte-Carlo total
	// (same input process), and in reconvergent networks strictly larger.
	c, err := netgen.Generate(netgen.Config{Name: "act", Gates: 60, Depth: 6, PIs: 5, POs: 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := setup(t, c)
	in := make(map[int]activity.InputSpec, len(c.PIs))
	for _, id := range c.PIs {
		in[id] = activity.InputSpec{Prob: 0.5, Density: 0.3}
	}
	const cycles = 20000
	timed, err := s.RandomVectorStats(in, cycles, 1e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := activity.MonteCarlo(c, in, cycles, 3)
	if err != nil {
		t.Fatal(err)
	}
	var timedTot, zeroTot float64
	for i := range c.Gates {
		if !c.Gates[i].IsLogic() {
			continue
		}
		timedTot += timed[i]
		zeroTot += mc.Density[i]
	}
	if timedTot < zeroTot*0.95 {
		t.Errorf("timed activity %v below zero-delay %v", timedTot, zeroTot)
	}
}

func TestSetInputErrors(t *testing.T) {
	c := chain(t, 2)
	s, _, _ := setup(t, c)
	if err := s.SetInput(c.GateByName("g0").ID, true); err == nil {
		t.Error("SetInput on a logic gate accepted")
	}
}

func TestRandomVectorStatsValidation(t *testing.T) {
	c := chain(t, 2)
	s, _, _ := setup(t, c)
	in := map[int]activity.InputSpec{c.PIs[0]: {Prob: 0.5, Density: 0.2}}
	if _, err := s.RandomVectorStats(in, 0, 1e-6, 1); err == nil {
		t.Error("zero cycles accepted")
	}
	if _, err := s.RandomVectorStats(in, 10, 0, 1); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := s.RandomVectorStats(nil, 10, 1e-6, 1); err == nil {
		t.Error("missing specs accepted")
	}
}

// Package sim is an event-driven gate-level timing simulator. It closes two
// validation loops the analytic stack leaves open:
//
//   - timing: the worst input-to-output propagation measured on actual input
//     events must never exceed — and for sensitizable paths should approach —
//     the static timing analysis bound from the delay model;
//   - activity: Najm's transition density (the paper's §4.1 machinery) is
//     defined over *timed* switching including glitches; the simulator counts
//     real transitions under a delay model, exposing the glitch power that
//     zero-delay analysis misses.
//
// Gates switch with the per-gate delays of a design.Assignment as evaluated
// by the delay model (inertial delay: a scheduled output change is cancelled
// when the gate re-evaluates to its present value before the change lands).
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"cmosopt/internal/activity"
	"cmosopt/internal/circuit"
	"cmosopt/internal/delay"
	"cmosopt/internal/design"
)

// Simulator drives one circuit with per-gate delays fixed at construction.
type Simulator struct {
	c     *circuit.Circuit
	td    []float64 // per-gate propagation delay (s)
	order []int32   // the circuit's CSR topological order

	val     []bool
	pending []int // per gate: index of the youngest scheduled event, -1 if none

	queue  eventHeap
	now    float64
	trans  []int64 // transitions observed per gate
	nextID int
}

type event struct {
	t    float64
	id   int // event identity for inertial cancellation
	gate int
	val  bool
}

// New builds a simulator over the circuit with the delays that the given
// assignment produces under the delay evaluator. All nodes start at logic 0
// with no scheduled events; use Settle after setting initial inputs.
func New(c *circuit.Circuit, de *delay.Evaluator, a *design.Assignment) (*Simulator, error) {
	if c.IsSequential() {
		return nil, fmt.Errorf("sim: circuit %q is sequential; cut DFFs first", c.Name)
	}
	cs, err := c.CSR()
	if err != nil {
		return nil, err
	}
	td := de.Delays(a)
	for i, d := range td {
		if c.Gates[i].IsLogic() && !(d > 0) {
			return nil, fmt.Errorf("sim: gate %q has non-positive delay %v", c.Gates[i].Name, d)
		}
	}
	s := &Simulator{
		c:       c,
		td:      td,
		order:   cs.Order,
		val:     make([]bool, c.N()),
		pending: make([]int, c.N()),
		trans:   make([]int64, c.N()),
	}
	for i := range s.pending {
		s.pending[i] = -1
	}
	return s, nil
}

// SetInput applies a value to a primary input at the current time; fanout
// gates re-evaluate and schedule.
func (s *Simulator) SetInput(id int, v bool) error {
	g := s.c.Gate(id)
	if g.Type != circuit.Input {
		return fmt.Errorf("sim: gate %q is not an input", g.Name)
	}
	if s.val[id] == v {
		return nil
	}
	s.val[id] = v
	s.trans[id]++
	for _, f := range g.Fanout {
		s.evaluate(int(f))
	}
	return nil
}

// evaluate recomputes a gate and schedules (or inertially cancels) its
// output event.
func (s *Simulator) evaluate(id int) {
	g := s.c.Gate(id)
	newV := activity.EvalGate(g.Type, g.Fanin, s.val)
	// Inertial behavior: the youngest pending event defines the value the
	// output is headed to; if we now re-evaluate to that same target, keep
	// it. If the target changes, supersede the pending event.
	target := s.val[id]
	if p := s.pending[id]; p >= 0 {
		target = s.queue.evs[s.indexOf(p)].val
	}
	if newV == target {
		return
	}
	if newV == s.val[id] && s.pending[id] >= 0 {
		// The glitch resolved before the output moved: cancel.
		s.cancel(id)
		return
	}
	s.schedule(id, newV)
}

func (s *Simulator) indexOf(eventID int) int {
	if i, ok := s.queue.pos[eventID]; ok {
		return i
	}
	return -1
}

func (s *Simulator) cancel(id int) {
	if idx := s.indexOf(s.pending[id]); idx >= 0 {
		heap.Remove(&s.queue, idx)
	}
	s.pending[id] = -1
}

func (s *Simulator) schedule(gate int, v bool) {
	if s.pending[gate] >= 0 {
		s.cancel(gate)
	}
	ev := event{t: s.now + s.td[gate], id: s.nextID, gate: gate, val: v}
	s.nextID++
	heap.Push(&s.queue, ev)
	s.pending[gate] = ev.id
}

// Run processes events until the queue drains or the horizon passes,
// returning the time of the last processed event (or the start time when
// nothing fired).
func (s *Simulator) Run(horizon float64) float64 {
	last := s.now
	for s.queue.Len() > 0 {
		ev := s.queue.evs[0]
		if ev.t > horizon {
			break
		}
		heap.Pop(&s.queue)
		s.now = ev.t
		if s.pending[ev.gate] == ev.id {
			s.pending[ev.gate] = -1
		}
		if s.val[ev.gate] == ev.val {
			continue
		}
		s.val[ev.gate] = ev.val
		s.trans[ev.gate]++
		last = ev.t
		for _, f := range s.c.Gate(ev.gate).Fanout {
			s.evaluate(int(f))
		}
	}
	s.now = last
	return last
}

// Settle zero-delay-initializes the network to be consistent with the
// current input values without counting transitions or consuming time.
func (s *Simulator) Settle() {
	for _, id := range s.order {
		g := &s.c.Gates[id]
		if g.Type == circuit.Input {
			continue
		}
		s.val[id] = activity.EvalGate(g.Type, g.Fanin, s.val)
	}
	// Clear anything scheduled during initialization bookkeeping.
	s.queue.evs = s.queue.evs[:0]
	s.queue.pos = nil
	for i := range s.pending {
		s.pending[i] = -1
	}
	for i := range s.trans {
		s.trans[i] = 0
	}
}

// Value returns the present logic value of a gate.
func (s *Simulator) Value(id int) bool { return s.val[id] }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

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

// RandomVectorStats clocks the simulator with random input vectors (each
// input independently drawn per cycle from the stationary distribution of
// its spec, with Markov transition rates matching its density) and returns
// the mean transitions per cycle per gate — the timed, glitch-inclusive
// counterpart of the analytic transition density.
func (s *Simulator) RandomVectorStats(inputs map[int]activity.InputSpec, cycles int, period float64, seed int64) ([]float64, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("sim: need at least one cycle")
	}
	if period <= 0 {
		return nil, fmt.Errorf("sim: period %v must be positive", period)
	}
	rng := rand.New(rand.NewSource(seed))
	// Initial state from stationary probabilities.
	for _, id := range s.c.PIs {
		spec, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("sim: no input spec for PI %q", s.c.Gate(id).Name)
		}
		s.val[id] = rng.Float64() < spec.Prob
	}
	s.Settle()
	clock := s.now
	for cy := 0; cy < cycles; cy++ {
		for _, id := range s.c.PIs {
			spec := inputs[id]
			var alpha, beta float64
			if spec.Prob > 0 && spec.Prob < 1 {
				alpha = spec.Density / (2 * (1 - spec.Prob))
				beta = spec.Density / (2 * spec.Prob)
			}
			if s.val[id] {
				if rng.Float64() < beta {
					if err := s.SetInput(id, false); err != nil {
						return nil, err
					}
				}
			} else if rng.Float64() < alpha {
				if err := s.SetInput(id, true); err != nil {
					return nil, err
				}
			}
		}
		clock += period
		s.Run(clock)
		s.now = clock // align to the cycle boundary regardless of event times
	}
	out := make([]float64, s.c.N())
	for i := range out {
		out[i] = float64(s.trans[i]) / float64(cycles)
	}
	return out, nil
}

// eventHeap is a time-ordered event queue with an id→position index so
// inertial cancellation removes events in O(log n) instead of scanning.
// PowerTrace runs the random-vector workload while binning the switched
// energy of every output transition into fixed time buckets, yielding the
// supply-power waveform the average-power models integrate away. Each
// transition deposits ½·C_sw·V² (C_sw = the gate's switched capacitance from
// the energy model's perspective, passed per gate). Returns the per-bucket
// average power (W) and the peak/average ratio — the number a supply-grid
// designer wants that E/cycle hides.
func (s *Simulator) PowerTrace(inputs map[int]activity.InputSpec, switchedEnergy []float64,
	cycles, bucketsPerCycle int, period float64, seed int64) (trace []float64, peakToAvg float64, err error) {
	if cycles < 1 || bucketsPerCycle < 1 {
		return nil, 0, fmt.Errorf("sim: need positive cycles and buckets")
	}
	if period <= 0 {
		return nil, 0, fmt.Errorf("sim: period %v must be positive", period)
	}
	if len(switchedEnergy) != s.c.N() {
		return nil, 0, fmt.Errorf("sim: switchedEnergy sized %d, circuit has %d gates", len(switchedEnergy), s.c.N())
	}
	rng := rand.New(rand.NewSource(seed))
	for _, id := range s.c.PIs {
		spec, ok := inputs[id]
		if !ok {
			return nil, 0, fmt.Errorf("sim: no input spec for PI %q", s.c.Gate(id).Name)
		}
		s.val[id] = rng.Float64() < spec.Prob
	}
	s.Settle()

	nBuckets := cycles * bucketsPerCycle
	bucketDur := period / float64(bucketsPerCycle)
	energy := make([]float64, nBuckets)
	start := s.now
	deposit := func(at float64, e float64) {
		b := int((at - start) / bucketDur)
		if b >= 0 && b < nBuckets {
			energy[b] += e
		}
	}

	clock := s.now
	for cy := 0; cy < cycles; cy++ {
		for _, id := range s.c.PIs {
			spec := inputs[id]
			var alpha, beta float64
			if spec.Prob > 0 && spec.Prob < 1 {
				alpha = spec.Density / (2 * (1 - spec.Prob))
				beta = spec.Density / (2 * spec.Prob)
			}
			flip := false
			if s.val[id] {
				flip = rng.Float64() < beta
			} else {
				flip = rng.Float64() < alpha
			}
			if flip {
				if err := s.SetInput(id, !s.val[id]); err != nil {
					return nil, 0, err
				}
				deposit(s.now, switchedEnergy[id])
			}
		}
		// Drain this cycle's events, depositing each output transition.
		for s.queue.Len() > 0 {
			ev := s.queue.evs[0]
			if ev.t > clock+period {
				break
			}
			pre := s.trans[ev.gate]
			s.runOne()
			if s.trans[ev.gate] != pre {
				deposit(ev.t, switchedEnergy[ev.gate])
			}
		}
		clock += period
		s.now = clock
	}

	trace = make([]float64, nBuckets)
	var sum, peak float64
	for i, e := range energy {
		trace[i] = e / bucketDur
		sum += trace[i]
		if trace[i] > peak {
			peak = trace[i]
		}
	}
	avg := sum / float64(nBuckets)
	if avg <= 0 {
		return trace, 0, nil
	}
	return trace, peak / avg, nil
}

// runOne pops and applies exactly one event (caller checked the queue).
func (s *Simulator) runOne() {
	ev := heap.Pop(&s.queue).(event)
	s.now = ev.t
	if s.pending[ev.gate] == ev.id {
		s.pending[ev.gate] = -1
	}
	if s.val[ev.gate] == ev.val {
		return
	}
	s.val[ev.gate] = ev.val
	s.trans[ev.gate]++
	for _, f := range s.c.Gate(ev.gate).Fanout {
		s.evaluate(int(f))
	}
}

type eventHeap struct {
	evs []event
	pos map[int]int // event id -> index in evs
}

func (h *eventHeap) Len() int           { return len(h.evs) }
func (h *eventHeap) Less(i, j int) bool { return h.evs[i].t < h.evs[j].t }
func (h *eventHeap) Swap(i, j int) {
	h.evs[i], h.evs[j] = h.evs[j], h.evs[i]
	h.pos[h.evs[i].id] = i
	h.pos[h.evs[j].id] = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(event)
	if h.pos == nil {
		h.pos = make(map[int]int)
	}
	h.pos[ev.id] = len(h.evs)
	h.evs = append(h.evs, ev)
}
func (h *eventHeap) Pop() any {
	old := h.evs
	n := len(old)
	ev := old[n-1]
	h.evs = old[:n-1]
	delete(h.pos, ev.id)
	return ev
}

package eval

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/delay"
	"cmosopt/internal/design"
	"cmosopt/internal/floats"
)

// The width kernel: Procedure 2's width passes as one fused loop.
//
// A width pass sizes every logic gate once, in solve order: it takes the
// largest delay among the gate's fanins, forms Eq. A3 around the gate's own
// width and binary-searches the smallest width in [lo, hi] whose delay meets
// the gate's target, then records the delay at that width (the settled
// delay) for the gate's fanouts to read. SizeWidths runs the passes over
// the engine's width table, which lists the gates with their fanins and
// fanouts as solve positions, so a pass walks dense arrays in order; the
// widths, settled delays and targets live in a WidthScratch indexed the
// same way. After the passes, WidthDelays re-times every gate at the final
// widths over the same table: the sweep a width solve verifies its budgets
// on, and the loop of every full-circuit delay sweep the engine runs.
//
// The common gate-pass is decided inline. Eq. A3 is affine in 1/w, so the
// pass forms c0 + c1/w from the loads and the per-(V_dd, V_TS) constants of
// the gate's fanin count (fanConst), and turns it into two widths, wTrue
// and wFalse: every width at or above wTrue meets the target and every
// width at or below wFalse misses it (bracketTrue, bracketFalse). A search
// whose lower bound already reaches wTrue ends there; one that bisects an
// exact grid ends on the grid cell the thresholds determine
// (bisectGrid.final). Every other case — a stalled gate, a gate without a
// usable closed form, a target out of reach, a width the thresholds leave
// undecided, an inexact grid — goes to one cold function, widthGateCold,
// which runs the whole search with the bisection's exact semantics. The
// widths, the settled delays and every effort counter are those of a
// bisection that evaluates Eq. A3 term by term (GateDelayAt) at each width
// it tests; DESIGN.md §5 gives the argument.

// bracketMargin is the thresholds' relative margin on the target and on
// the width, and maxBracketLoads the largest load count whose rounding
// error it covers: (2²⁰+10)·2⁻⁵³ < 1.2·10⁻¹⁰.
const (
	bracketMargin   = 1e-9
	maxBracketLoads = 1 << 20
)

// maxTableFanin is the largest fanin count the per-fanin-count constants
// cover; a gate with more fanins takes the cold path. fanBlockRows is how
// many voltage pairs' constants one allocation holds.
const (
	maxTableFanin = 64
	fanBlockRows  = 32
)

// Slot flags.
const (
	slotPO   uint8 = 1 << iota // the gate is a primary output
	slotCold                   // the gate always takes the cold path
)

// widthSlot is one logic gate of a width table: its ID, where its logic
// fanins' and its fanouts' positions start in the table's lists (the next
// slot's offsets end them), its fanin count f_ii and its flags.
type widthSlot struct {
	id    int32
	fin   int32
	fout  int32
	nf    uint16
	flags uint8
}

// widthTable is the width kernel's gate table: the logic gates level by
// level, each level grouped by gate shape (fanin count, then load count),
// in topological order within a group, with each gate's logic fanins and
// its fanouts listed by solve position in the CSR's order. No gate of a
// level is a fanin or fanout of another gate of its level, so a pass in
// this order sees the widths and delays a topological pass would. A table
// is immutable once built and is shared by an engine and its clones.
type widthTable struct {
	cs      *circuit.CSR
	slots   []widthSlot // one per logic gate, then a sentinel
	finPos  []int32
	foutPos []int32
}

// fanStride returns the number of per-fanin-count constants the width
// kernel keeps per voltage pair: one per fanin count up to the circuit's
// largest, capped at maxTableFanin.
func fanStride(cs *circuit.CSR) int {
	m := 0
	for id := range int32(cs.N()) {
		if cs.IsLogic[id] {
			m = max(m, cs.NumFanin(id))
		}
	}
	return min(m, maxTableFanin) + 1
}

// shapeOrder returns the logic gates level by level, each level's gates
// grouped by fanin count and then by load count (fanouts, plus one for a
// primary output), in topological order within a group. A width pass over
// it runs its fanin and load loops for the same trip counts many times in
// a row.
func shapeOrder(cs *circuit.CSR) []int32 {
	base := cs.LevelStart[1]
	order := slices.Clone(cs.Order[base:])
	loads := func(id int32) int {
		if cs.IsPO[id] {
			return cs.NumFanout(id) + 1
		}
		return cs.NumFanout(id)
	}
	for l := 1; l < cs.NumLevels(); l++ {
		slices.SortStableFunc(order[cs.LevelStart[l]-base:cs.LevelStart[l+1]-base], func(a, b int32) int {
			return cmp.Or(cmp.Compare(cs.NumFanin(a), cs.NumFanin(b)), cmp.Compare(loads(a), loads(b)))
		})
	}
	return order
}

// newWidthTable builds the width kernel's gate table for an engine's
// circuit; a gate with stride (fanStride) or more fanins, or more than
// maxBracketLoads loads, is a cold slot. The kernel keeps no widths for
// gates outside the table, so it needs every gate above level 0, and every
// fanout of a logic gate, to be a logic gate. Both hold for any engine's circuit: delay.New refuses a
// circuit with a flip-flop, so every gate is an input or a logic gate;
// Validate, which every sealed circuit has passed, gives an input no
// fanins, so nothing fans out to an input; and levelization puts the
// inputs, and only them, at level 0. The panics guard that argument.
func newWidthTable(cs *circuit.CSR, stride int) *widthTable {
	order := shapeOrder(cs)
	pos := make([]int32, cs.N())
	nin, nout := 0, 0
	for i, id := range order {
		if !cs.IsLogic[id] {
			panic(fmt.Sprintf("eval: gate %d above level 0 is not a logic gate", id))
		}
		pos[id] = int32(i)
		for _, f := range cs.Fanins(id) {
			if cs.IsLogic[f] {
				nin++
			}
		}
		nout += cs.NumFanout(id)
	}
	lists := make([]int32, nin+nout)
	t := &widthTable{
		cs:      cs,
		slots:   make([]widthSlot, len(order)+1),
		finPos:  lists[:0:nin],
		foutPos: lists[nin:nin],
	}
	for i, id := range order {
		sl := &t.slots[i]
		sl.id = id
		sl.fin, sl.fout = int32(len(t.finPos)), int32(len(t.foutPos))
		for _, f := range cs.Fanins(id) {
			// An input's delay is 0, which never raises the fanin maximum.
			if cs.IsLogic[f] {
				t.finPos = append(t.finPos, pos[f])
			}
		}
		loads := len(cs.Fanouts(id))
		for _, f := range cs.Fanouts(id) {
			if !cs.IsLogic[f] {
				panic(fmt.Sprintf("eval: logic gate %d fans out to non-logic gate %d", id, f))
			}
			t.foutPos = append(t.foutPos, pos[f])
		}
		if cs.IsPO[id] {
			sl.flags |= slotPO
			loads++
		}
		if nf := cs.NumFanin(id); nf < stride && loads <= maxBracketLoads {
			sl.nf = uint16(nf)
		} else {
			sl.flags |= slotCold
		}
	}
	t.slots[len(order)] = widthSlot{fin: int32(len(t.finPos)), fout: int32(len(t.foutPos))}
	return t
}

// WidthScratch is one engine's state over its width table, indexed by
// solve position: the search targets, which a width solve sets before each
// solve, the delays, the widths, which SizeWidths and the full sweep gather
// from the assignment, and the arrivals of the full sweep. SizeWidths
// leaves the last pass's settled delays in Delay; WidthDelays writes over
// them with the delays at the scratch's widths.
type WidthScratch struct {
	Target []float64
	Delay  []float64
	t      *widthTable
	w      []float64
	arr    []float64
}

// newScratch returns fresh state for the table.
func (t *widthTable) newScratch() *WidthScratch {
	n := len(t.slots) - 1
	buf := make([]float64, 4*n)
	return &WidthScratch{Target: buf[:n:n], Delay: buf[n : 2*n : 2*n], t: t, w: buf[2*n : 3*n : 3*n], arr: buf[3*n:]}
}

// ID returns the gate at solve position i.
func (s *WidthScratch) ID(i int) int32 { return s.t.slots[i].id }

// gather copies a's widths into the scratch.
func (s *WidthScratch) gather(a *design.Assignment) {
	for i := range s.w {
		s.w[i] = a.W[s.t.slots[i].id]
	}
}

// scatter copies src, indexed by solve position, into dst, indexed by gate
// ID. Gates outside the table keep their entries in dst.
func (s *WidthScratch) scatter(dst, src []float64) {
	for i, v := range src {
		dst[s.t.slots[i].id] = v
	}
}

// arrivals forms each gate's worst arrival time, its largest fanin arrival
// plus its delay, from the delays in s.Delay, in solve order, and returns
// the worst primary-output arrival. An input's arrival is 0, which never
// raises a maximum that starts at 0, so only the logic fanins are read.
// floats.MaxNonNeg takes each maximum as "x > m" would, so the arrivals
// are bitwise those of delay.Evaluator.Arrivals.
func (s *WidthScratch) arrivals() float64 {
	slots, finPos := s.t.slots, s.t.finPos
	n := len(slots) - 1
	td, arr := s.Delay[:n], s.arr[:n]
	worst := 0.0
	for i := 0; i < n; i++ {
		maxIn := 0.0
		for _, f := range finPos[slots[i].fin:slots[i+1].fin] {
			maxIn = floats.MaxNonNeg(maxIn, arr[f])
		}
		arr[i] = maxIn + td[i]
		if slots[i].flags&slotPO != 0 {
			worst = floats.MaxNonNeg(worst, arr[i])
		}
	}
	return worst
}

// fanConst holds a width pass's constants for one fanin count f at one
// (V_dd, V_TS) pair: the net drive, the switching delay per unit of load
// and width, the series-stack charge and its delay per unit of 1/w. perCap
// is NaN where the closed form does not apply (a stalled gate, V_dd not
// positive, a negative C_PD or stack charge), which sends the gate-pass to
// the cold path.
type fanConst struct {
	drive   float64 // I_Dw − f·I_off
	perCap  float64 // V_dd/(2·drive)
	stack   float64 // (f−1)·C_mi·V_dd
	stackC1 float64 // stack/(2·I_Dw) when f > 1, else 0
}

// widthRow looks one voltage pair up as coeffs does, and counts it the same
// way, and returns its coefficients with its per-fanin-count constants,
// which it derives on the pair's first width lookup and keeps with the
// pair's cache entry. A NaN pair is never found again, so its constants are
// not written back.
func (e *Engine) widthRow(vdd, vts float64) (delay.Coeffs, []fanConst) {
	k := e.coeffs(vdd, vts)
	if e.last.row == nil {
		if len(e.fanFree) < e.fanStride {
			e.fanFree = make([]fanConst, fanBlockRows*e.fanStride)
		}
		row := e.fanFree[:e.fanStride:e.fanStride]
		e.fanFree = e.fanFree[e.fanStride:]
		t := e.Tech
		for f := range row {
			fii := float64(f)
			drive, stalled := delay.NetDrive(k, fii)
			c := fanConst{drive: drive, perCap: vdd / (2 * drive), stack: delay.StackCharge(fii, t.Cmi, vdd)}
			if f > 1 {
				c.stackC1 = c.stack / (2 * k.Idw)
			}
			if stalled || !(vdd > 0) || !(t.CPD >= 0) || f > 1 && !(c.stack >= 0) {
				c.perCap = math.NaN()
			}
			row[f] = c
		}
		e.last.row = row
		if vdd == vdd && vts == vts {
			e.cache[e.lastKey] = e.last
		}
	}
	return k, e.last.row
}

// widthSolve is one SizeWidths call's invariants, which the cold path
// reads.
type widthSolve struct {
	s      *WidthScratch
	a      *design.Assignment
	lo, hi float64
	steps  int
	grid   bisectGrid
	closed bool // lo and hi are finite and positive: the thresholds apply
}

// SizeWidths runs up to passes width passes over s's table at a's voltages,
// sizing each logic gate to the smallest width in [lo, hi] whose delay
// meets s.Target at its position, by a bisection of steps halvings: it
// tests hi, then lo, then steps midpoints lo + (hi−lo)/2, keeping the
// failing end in lo and the passing end in hi, and takes hi. When lo
// already meets the target the width is lo. When even hi misses it, the
// search is repeated against 1.1× the delay at hi, and the change is
// measured from hi. It stops after the first pass in which no width moves
// by more than 0.1 %, and leaves the widths in a and the last pass's
// settled delays in s.Delay.
//
// Each gate-pass counts one coefficient lookup, one gate-delay call for
// the settled delay, and one width probe and one gate-delay call per width
// its search tests: 2 + steps for a bisection, 2 when lo meets the target
// and 1 when hi misses it, plus 1 for the delay at hi and the second
// search's on that path.
func (e *Engine) SizeWidths(s *WidthScratch, a *design.Assignment, lo, hi float64, steps, passes int) {
	t := s.t
	if t.cs != e.cs {
		panic("eval: width table built for another circuit")
	}
	s.gather(a)
	ws := widthSolve{
		s: s, a: a, lo: lo, hi: hi, steps: steps,
		grid:   newBisectGrid(lo, hi, steps),
		closed: lo > 0 && hi > 0 && lo <= math.MaxFloat64 && hi <= math.MaxFloat64,
	}
	for pass := 0; pass < passes; pass++ {
		if !e.widthPass(&ws) {
			break
		}
	}
	s.scatter(a.W, s.w)
}

// widthPass sizes every gate of the table once and reports whether any
// width moved by more than 0.1 %.
func (e *Engine) widthPass(ws *widthSolve) bool {
	s, a := ws.s, ws.a
	slots := ws.s.t.slots
	finPos, foutPos := s.t.finPos, s.t.foutPos
	n := len(slots) - 1
	w, td, target := s.w[:n], s.Delay[:n], s.Target[:n]
	vts, vddPer, vddAll := a.Vts, a.VddPer, a.Vdd
	tech, wire := e.Tech, e.Wire
	cpd, ct, cout := tech.CPD, tech.Ct, tech.COut
	cb, rb, fl := wire.BranchCap(), wire.BranchRes(), wire.FlightTime()
	lo, hi, closed := ws.lo, ws.hi, ws.closed
	grid := &ws.grid
	bisect := 2 + int64(max(ws.steps, 0))
	var probes, hits int64
	changed := false
	kv, kt := math.NaN(), math.NaN() // no pair is looked up yet
	var k delay.Coeffs
	var fan []fanConst
	for i := 0; i < n; i++ {
		sl := slots[i]
		end := &slots[i+1]
		id := int(sl.id)
		vdd := vddAll
		if vddPer != nil {
			vdd = vddPer[id]
		}
		// One lookup per gate, counted as coeffs counts it: a hit when
		// the pair is the one looked up last.
		if vt := vts[id]; vdd != kv || vt != kt {
			kv, kt = vdd, vt
			k, fan = e.widthRow(vdd, vt)
		} else {
			hits++
		}
		// The fanin delays are data: a compare-and-branch here mispredicts.
		maxIn := 0.0
		for _, f := range finPos[sl.fin:end.fin] {
			maxIn = floats.MaxNonNeg(maxIn, td[f])
		}
		fc := &fan[sl.nf]
		slope := delay.SlopeTerm(k, maxIn)
		outs := foutPos[sl.fout:end.fout]
		po := sl.flags&slotPO != 0
		worst, sum := 0.0, 0.0
		signed := false // a negative load: sums may cancel, so no closed form
		for _, f := range outs {
			l := delay.BranchLoad(w[f], ct, cb)
			sum += l
			signed = signed || l < 0
			worst = floats.MaxNonNeg(worst, delay.BranchDelay(rb, l, fl))
		}
		if po {
			l := delay.POLoad(cout, cb)
			sum += l
			signed = signed || l < 0
			worst = floats.MaxNonNeg(worst, delay.BranchDelay(rb, l, fl))
		}
		c0 := slope + worst + cpd*fc.perCap
		c1 := sum * fc.perCap
		c1 += fc.stackC1

		tg, wOld := target[i], w[i]
		wNew, decided := 0.0, false
		if closed && sl.flags&slotCold == 0 && !signed && slope >= 0 &&
			c0 <= math.MaxFloat64 && c1 <= math.MaxFloat64 && tg > 0 && tg <= math.MaxFloat64 {
			wTrue := bracketTrue(c0, c1, tg)
			if lo >= wTrue && hi >= wTrue {
				wNew, decided = lo, true
				probes += 2
			} else if hi >= wTrue {
				if wFalse := bracketFalse(c0, c1, tg); lo <= wFalse {
					if wc, ok := grid.final(wTrue, wFalse); ok {
						wNew, decided = wc, true
						probes += bisect
					}
				}
			}
		}
		var d float64
		if decided {
			// The settled delay, in GateDelayAt's order of terms.
			load := wNew * cpd
			for _, f := range outs {
				load += delay.BranchLoad(w[f], ct, cb)
			}
			if po {
				load += delay.POLoad(cout, cb)
			}
			d = slope
			d += delay.SwitchingTerm(vdd, load, wNew, fc.drive)
			d += worst
			if sl.nf > 1 {
				d += delay.StackTerm(fc.stack, wNew, k.Idw)
			}
		} else {
			wNew, wOld, d = e.widthGateCold(ws, i, maxIn)
		}
		changed = changed || math.Abs(wNew-wOld) > 1e-3*wOld
		w[i] = wNew
		td[i] = d
	}
	e.met.CoeffHits += hits
	e.met.WidthProbes += probes
	e.met.GateDelayCalls += probes + int64(n)
	return changed
}

// WidthDelays re-times every gate of s's table at the widths in s, which
// must be a's (SizeWidths leaves them so, and the full sweep gathers them),
// in solve order, writing each gate's delay over s.Delay. Solve order is
// topological, so each gate reads its fanins' new delays, and each delay is
// formed from delay's Eq. A3 term helpers in GateDelayAt's order of terms
// (+Inf for a stalled gate, GateDelayAt itself for a cold slot): the delays
// are bitwise those delay.Evaluator.Delays returns for the same assignment.
// It bills one full sweep, one gate-delay call and one coefficient lookup
// per logic gate, counted as coeffs counts it, and one eval.full_sweep_ns
// observation.
func (e *Engine) WidthDelays(s *WidthScratch, a *design.Assignment) {
	t := s.t
	if t.cs != e.cs {
		panic("eval: width table built for another circuit")
	}
	e.met.FullDelaySweeps++
	var t0 time.Time
	if e.sink != nil {
		t0 = time.Now() //cmosvet:allow determinism — sweep latency feeds an obs histogram only, never a result
	}
	slots := t.slots
	finPos, foutPos := t.finPos, t.foutPos
	n := len(slots) - 1
	w, td := s.w[:n], s.Delay[:n]
	vts, vddPer, vddAll := a.Vts, a.VddPer, a.Vdd
	tech, wire := e.Tech, e.Wire
	cpd, ct, cout := tech.CPD, tech.Ct, tech.COut
	cb, rb, fl := wire.BranchCap(), wire.BranchRes(), wire.FlightTime()
	var hits int64
	kv, kt := math.NaN(), math.NaN() // no pair is looked up yet
	var k delay.Coeffs
	var fan []fanConst
	for i := 0; i < n; i++ {
		sl := slots[i]
		end := &slots[i+1]
		id := int(sl.id)
		vdd := vddAll
		if vddPer != nil {
			vdd = vddPer[id]
		}
		if vt := vts[id]; vdd != kv || vt != kt {
			kv, kt = vdd, vt
			k, fan = e.widthRow(vdd, vt)
		} else {
			hits++
		}
		maxIn := 0.0
		for _, f := range finPos[sl.fin:end.fin] {
			maxIn = floats.MaxNonNeg(maxIn, td[f])
		}
		if sl.flags&slotCold != 0 {
			td[i] = e.dm.GateDelayAt(id, a, w[i], -1, 0, maxIn, k)
			continue
		}
		fc := &fan[sl.nf]
		if fc.drive <= 0 || k.Idw <= 0 { // delay.NetDrive's stall
			td[i] = math.Inf(1)
			continue
		}
		wi := w[i]
		load, worst := wi*cpd, 0.0
		for _, f := range foutPos[sl.fout:end.fout] {
			l := delay.BranchLoad(w[f], ct, cb)
			load += l
			worst = floats.MaxNonNeg(worst, delay.BranchDelay(rb, l, fl))
		}
		if sl.flags&slotPO != 0 {
			l := delay.POLoad(cout, cb)
			load += l
			worst = floats.MaxNonNeg(worst, delay.BranchDelay(rb, l, fl))
		}
		d := delay.SlopeTerm(k, maxIn)
		d += delay.SwitchingTerm(vdd, load, wi, fc.drive)
		d += worst
		if sl.nf > 1 {
			d += delay.StackTerm(fc.stack, wi, k.Idw)
		}
		td[i] = d
	}
	e.met.CoeffHits += hits
	e.met.GateDelayCalls += int64(n)
	if e.sink != nil {
		//cmosvet:allow determinism — sweep latency feeds an obs histogram only, never a result
		e.sink.sweepNS.ObserveDuration(time.Since(t0))
	}
}

// gateTerms is one gate's Eq. A3 delay with every term that does not depend
// on the gate's own width already evaluated: the cold path's form of what
// widthPass derives inline. Its loads are re-read from the scratch widths
// of the gate's fanouts at every width it evaluates.
type gateTerms struct {
	slope  float64 // input-slope component
	vdd    float64 // the gate's supply
	cpd    float64 // output parasitic capacitance per unit width
	drive  float64 // net drive current I_Dw − f_ii·I_off
	idw    float64 // drive current I_Dw
	worst  float64 // worst fanout branch RC plus time of flight
	stack  float64 // series-stack charge (f_ii−1)·C_mi·V_dd
	series bool    // f_ii > 1: the series-stack component applies

	// The loads: w_f·C_t + C_INT for each fanout, in fanout order, then the
	// primary-output load C_out + C_INT when po is set.
	outs []int32
	w    []float64
	ct   float64
	cout float64
	cb   float64
	po   bool

	// stalled marks a gate the operating point cannot switch: its delay is
	// +Inf at every width.
	stalled bool

	// The closed form c0 + c1/w, and whether the thresholds may use it.
	c0     float64
	c1     float64
	affine bool
}

// widthGateCold runs gate-pass i in full: it prepares the gate's terms, runs
// the search and, when the target is out of reach, the second search, and
// returns the width, the width the change is measured from and the settled
// delay. It counts the search's probes; widthPass counts the lookup, which
// it has made, and the settled delay.
func (e *Engine) widthGateCold(ws *widthSolve, i int, maxIn float64) (w, wOld, td float64) {
	var g gateTerms
	e.prepareTerms(&g, ws, i, maxIn)
	wOld = ws.s.w[i]
	w, ok := e.minWidth(&g, ws, ws.s.Target[i])
	if !ok {
		// The target is out of reach at any width (a squeezed Procedure 1
		// budget). Take the smallest width within 10 % of the best
		// achievable delay instead of paying the full hi energy; the change
		// is measured from hi, where the search ended.
		dBest := g.at(ws.hi)
		e.met.WidthProbes++
		e.met.GateDelayCalls++
		w, _ = e.minWidth(&g, ws, dBest*1.1)
		wOld = ws.hi
	}
	return w, wOld, g.at(w)
}

// prepareTerms evaluates gate-pass i's width-independent terms into g. The
// gate's coefficients are the engine's last lookup, which widthPass made
// for this gate.
func (e *Engine) prepareTerms(g *gateTerms, ws *widthSolve, i int, maxIn float64) {
	t := ws.s.t
	sl := t.slots[i]
	id := int(sl.id)
	k := e.last.k
	vdd := ws.a.VddAt(id)
	tech := e.Tech
	fii := float64(e.cs.NumFanin(sl.id))
	drive, stalled := delay.NetDrive(k, fii)
	if stalled {
		g.stalled = true
		return
	}
	g.outs = t.foutPos[sl.fout:t.slots[i+1].fout]
	g.w = ws.s.w
	g.ct, g.cout, g.cb = tech.Ct, tech.COut, e.Wire.BranchCap()
	g.po = sl.flags&slotPO != 0
	rb, fl := e.Wire.BranchRes(), e.Wire.FlightTime()
	worst, sum := 0.0, 0.0
	signed := false
	nloads := len(g.outs)
	for _, f := range g.outs {
		l := delay.BranchLoad(g.w[f], g.ct, g.cb)
		sum += l
		signed = signed || l < 0
		worst = floats.MaxNonNeg(worst, delay.BranchDelay(rb, l, fl))
	}
	if g.po {
		l := delay.POLoad(g.cout, g.cb)
		sum += l
		signed = signed || l < 0
		worst = floats.MaxNonNeg(worst, delay.BranchDelay(rb, l, fl))
		nloads++
	}
	g.slope = delay.SlopeTerm(k, maxIn)
	g.vdd = vdd
	g.cpd = tech.CPD
	g.drive = drive
	g.idw = k.Idw
	g.worst = worst
	g.stack = delay.StackCharge(fii, tech.Cmi, vdd)
	g.series = fii > 1

	perCap := vdd / (2 * drive) // switching delay per unit of load, times w
	g.c0 = g.slope + worst + tech.CPD*perCap
	g.c1 = sum * perCap
	if g.series {
		g.c1 += g.stack / (2 * k.Idw)
	}
	// The thresholds' error bound needs every term of at non-negative
	// (drive and I_Dw are positive on a gate that switches), few enough
	// loads, and finite coefficients; NaN fails every comparison here.
	g.affine = !signed && g.slope >= 0 && vdd > 0 && tech.CPD >= 0 &&
		(!g.series || g.stack >= 0) && nloads <= maxBracketLoads &&
		g.c0 <= math.MaxFloat64 && g.c1 <= math.MaxFloat64
}

// at returns the prepared gate's delay at width w, adding the terms in
// GateDelayAt's order.
func (g *gateTerms) at(w float64) float64 {
	if g.stalled {
		return math.Inf(1)
	}
	load := w * g.cpd
	for _, f := range g.outs {
		load += delay.BranchLoad(g.w[f], g.ct, g.cb)
	}
	if g.po {
		load += delay.POLoad(g.cout, g.cb)
	}
	td := g.slope
	td += delay.SwitchingTerm(g.vdd, load, w, g.drive)
	td += g.worst
	if g.series {
		td += delay.StackTerm(g.stack, w, g.idw)
	}
	return td
}

// minWidth returns the smallest width in [lo, hi] at which the prepared
// gate's delay meets target, by the bisection SizeWidths describes; the
// second result is false when even hi misses it. Each tested width counts
// one probe. The thresholds decide the widths they can and at decides the
// rest, so the tested widths, the result and the counts are those of a
// bisection that calls at at every width.
func (e *Engine) minWidth(g *gateTerms, ws *widthSolve, target float64) (float64, bool) {
	lo, hi, steps := ws.lo, ws.hi, ws.steps
	// Every tested width lies in [lo, hi], where the thresholds hold when lo
	// and hi are finite and positive.
	wTrue, wFalse := math.NaN(), math.NaN()
	usable := ws.closed && !g.stalled && g.affine && target > 0 && target <= math.MaxFloat64
	if usable {
		wTrue = bracketTrue(g.c0, g.c1, target)
	}
	if lo >= wTrue && hi >= wTrue {
		e.countProbes(2)
		return lo, true
	}
	if usable {
		wFalse = bracketFalse(g.c0, g.c1, target)
	}
	if !g.meets(hi, wTrue, wFalse, target) {
		e.countProbes(1)
		return hi, false
	}
	if g.meets(lo, wTrue, wFalse, target) {
		e.countProbes(2)
		return lo, true
	}
	e.countProbes(2 + int64(max(steps, 0)))
	if w, ok := ws.grid.final(wTrue, wFalse); ok {
		return w, true
	}
	for i := 0; i < steps; i++ {
		mid := lo + (hi-lo)/2
		if g.meets(mid, wTrue, wFalse, target) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// meets reports whether the prepared delay at width w is at most target,
// from the thresholds when they decide it and from at otherwise. A NaN
// threshold fails both comparisons, so it leaves every width to at.
func (g *gateTerms) meets(w, wTrue, wFalse, target float64) bool {
	if w >= wTrue {
		return true
	}
	if w <= wFalse {
		return false
	}
	return g.at(w) <= target
}

// countProbes records n width probes.
func (e *Engine) countProbes(n int64) {
	e.met.WidthProbes += n
	e.met.GateDelayCalls += n
}

// bracketTrue and bracketFalse turn the closed form c0 + c1/w of a gate
// whose every Eq. A3 term is non-negative into two widths that decide
// "delay(w) <= target" for any width 0 < w < +Inf, for a finite positive
// target: it holds at every w >= bracketTrue and fails at every
// w <= bracketFalse. Only widths strictly between them, next to the
// crossing, need the term-by-term sum. bracketTrue is NaN when no width
// reaches the target, and decides nothing then; bracketFalse is +Inf when
// no width does even with the margin.
//
// The thresholds apply a relative margin of 10⁻⁹ on the target and on the
// width, which covers the rounding of both forms. Every term is
// non-negative, so the term-by-term sum lies within a relative
// (n+10)·2⁻⁵³ of the exact value of Eq. A3 at the prepared terms, for n
// loads: n+1 roundings form the load, three the switching term, two the
// stack term and three the final sum. c0 and c1 are within the same bound
// of the exact coefficients, and the width margin covers the four
// roundings of a threshold. Past maxBracketLoads loads the bound nears the
// margin, and such a gate takes the cold path without thresholds. The
// argument assumes no intermediate result is subnormal; Eq. A3's delays,
// capacitances and currents sit hundreds of decades above that.
func bracketTrue(c0, c1, target float64) float64 {
	// c0 + c1/w <= target·(1−margin) for w >= c1/(target·(1−margin) − c0);
	// below c0 no width reaches the target.
	if d := target*(1-bracketMargin) - c0; d > 0 {
		return c1 / d * (1 + bracketMargin)
	}
	return math.NaN()
}

// bracketFalse returns the width at or below which the delay misses
// target; see bracketTrue.
func bracketFalse(c0, c1, target float64) float64 {
	// c0 + c1/w >= target·(1+margin) for w <= c1/(target·(1+margin) − c0),
	// and for every width once c0 alone reaches it.
	if d := target*(1+bracketMargin) - c0; d > 0 {
		return c1 / d * (1 - bracketMargin)
	}
	return math.Inf(1)
}

// bisectGrid holds the widths a bisection over [lo, hi] in steps halvings
// can test: lo + j·step for j = 0 … n, with step = (hi−lo)/2^steps and
// n = 2^steps. When lo, hi and step are all multiples of one power of two
// q and hi < 2^53·q, every sum and difference the bisection forms is an
// integer multiple of q below 2^53·q, hence exact: each midpoint it tests
// is exactly lo + j·step, with no rounding. The default width range
// [1, 100] has such a grid up to 46 steps; a bound like 1.3, whose mantissa
// has its low bits set, has none. step is 0 when the grid is not exact.
type bisectGrid struct {
	lo, hi float64
	step   float64
	n      int64
}

// newBisectGrid returns the grid of a bisection over [lo, hi] in steps
// halvings, with step 0 unless every midpoint is exact.
func newBisectGrid(lo, hi float64, steps int) bisectGrid {
	g := bisectGrid{lo: lo, hi: hi}
	if steps < 1 || !(0 < lo && lo < hi && hi <= math.MaxFloat64) {
		return g
	}
	step := math.Ldexp(hi-lo, -steps)
	q := min(lowBit(lo), lowBit(hi), lowBit(step))
	// The second test rejects a step rounded below the normal range; an exact
	// grid also has fewer than 2^53 cells, which keeps n in range.
	if hi < math.Ldexp(1, 53+q) && math.Ldexp(step, steps) == hi-lo {
		g.step, g.n = step, int64(1)<<steps
	}
	return g
}

// lowBit returns the exponent of the lowest set bit of a finite x > 0: the
// largest power of two x is a multiple of.
func lowBit(x float64) int {
	frac, e := math.Frexp(x)
	return e - 53 + bits.TrailingZeros64(uint64(math.Ldexp(frac, 53)))
}

// final returns the width a bisection over an exact grid ends on when the
// thresholds alone decide every midpoint it tests, and false otherwise. The
// bisection starts from a failing lo and a passing hi. Grid points at or
// above wTrue meet the target and those at or below wFalse miss it, so when
// the point below the first one at or above wTrue is at most wFalse, every
// midpoint is decided and the bisection narrows to that first point: the
// smallest passing grid point, whatever the term-by-term sum would say
// between the thresholds. A NaN wFalse decides nothing; a NaN wTrue or one
// above hi leaves hi as the first passing point.
func (g *bisectGrid) final(wTrue, wFalse float64) (float64, bool) {
	if g.step == 0 {
		return 0, false
	}
	k := g.n
	if wTrue <= g.hi {
		// The first grid point at or above wTrue, above a failing lo: the
		// ceiling of q = (wTrue − lo)/step. The rounded quotient has the
		// exact index as its ceiling: wTrue − lo is exact (lo is a multiple
		// of q, and q of wTrue's ulp), and a wTrue above grid point j lies
		// at least one ulp of that point above it, more than half an ulp of
		// j in quotient units, so the quotient never rounds down onto j. It
		// never rounds above an integer it does not exceed. The quotient is
		// positive and at most 2^steps < 2^53, so truncating it gives its
		// floor exactly.
		q := (wTrue - g.lo) / g.step
		k = int64(q)
		if float64(k) < q {
			k++
		}
		k = max(k, 1)
	}
	if !(g.lo+float64(k-1)*g.step <= wFalse) {
		return 0, false
	}
	return g.lo + float64(k)*g.step, true
}

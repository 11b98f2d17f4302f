package core

import (
	"cmosopt/internal/design"
	"cmosopt/internal/eval"
	"cmosopt/internal/parallel"
)

// fork returns a worker's private copy of the problem, the one unit of
// worker state in every parallel driver. Circuit, activity, wiring, timing,
// budgets, the span node and the width kernel's gate table are shared
// read-only; the engine is a clone and the width solver's scratch and the
// walk's spare candidate are fresh, so independent solves never share
// mutable state. The struct copy shares every other field by default,
// leaving no field list to drift. The caller merges the fork's effort
// counters back with absorb.
func (p *Problem) fork() *Problem {
	f := *p
	f.Eval = p.Eval.Clone()
	f.wscr, f.spare = nil, nil
	return &f
}

// absorb merges a worker engine's effort counters into the problem's main
// meter. Counter totals are sums, so the merge order cannot change them:
// after all work is absorbed, the main meter reads exactly what a serial
// run would have counted.
func (p *Problem) absorb(e *eval.Engine) {
	p.Eval.Metrics().Add(*e.Metrics())
}

// fanOut runs n independent jobs on forks of p, one fork per worker
// (0 = GOMAXPROCS), and merges every fork's effort counters back into the
// main meter: every job here is work a serial loop would also perform
// (exhaustive scans and sweeps), so all of it is billed. One worker is the
// same code with one fork. Jobs must write only state indexed by their own
// iteration number; reductions belong to the caller, in index order, so
// results are byte-identical at any worker count.
func (p *Problem) fanOut(workers, n int, job func(q *Problem, i int)) {
	w := min(parallel.Workers(workers), max(n, 1)) // Pool reads 0 as GOMAXPROCS
	forks := parallel.Pool(w, func(int) *Problem { return p.fork() })
	parallel.For(w, n, func(wk, i int) { job(forks[wk], i) })
	for _, f := range forks {
		p.absorb(f.Eval)
	}
}

// sweepWorkers applies the sweep rule to a whole-optimization sweep of n
// points: the sweep fans out over opts.Workers (at most one worker per
// point), and whenever it runs points side by side their inner optimizers
// run on one worker each, so the sweep level owns the parallelism. It
// returns the sweep's worker count and the inner optimizers' options.
func sweepWorkers(opts Options, n int) (int, Options) {
	w := min(parallel.Workers(opts.Workers), n)
	if w > 1 {
		opts.Workers = 1
	}
	return w, opts
}

// pointRes is the outcome of pricing one (Vdd, Vts) candidate.
type pointRes struct {
	e  float64
	a  *design.Assignment
	ok bool
}

// scanPoints evaluates a list of (V_dd, V_TS) candidates — grid cells, line
// scans — and returns results in input order, billing all of the work.
func (p *Problem) scanPoints(workers int, pts [][2]float64, o *Options) []pointRes {
	out := make([]pointRes, len(pts))
	p.fanOut(workers, len(pts), func(q *Problem, i int) {
		out[i] = q.evalPoint(pts[i][0], pts[i][1], o)
	})
	return out
}

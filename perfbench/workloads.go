package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
	"cmosopt/internal/serve"
)

type options struct {
	workload string
	seed     int64
	ops      int           // measured operations of the run
	window   time.Duration // the time those operations take on the calibration host
	trace    bool
	sc       scale
}

// loopSize bounds one measured loop: it attempts ops operations, and starts
// none after guard has passed, so that a host much slower than the
// calibration host cannot hold a run past its time limit.
type loopSize struct {
	ops   int
	guard time.Duration
}

// guardFactor is how many times its share of the window a measured loop may
// take before it stops starting operations.
const guardFactor = 3

// loops splits the run's operations: all of them untraced, or in a traced
// run an untraced first half and a traced second half.
func (o options) loops() (untraced, traced loopSize) {
	if o.trace {
		half := loopSize{ops: max(o.ops/2, 1), guard: guardFactor * o.window / 2}
		return half, half
	}
	return loopSize{ops: max(o.ops, 1), guard: guardFactor * o.window}, loopSize{}
}

// scale sizes a run; the benchmark uses fullScale, its test a smaller one.
type scale struct {
	jointGates, jointDepth     int
	missMinGates, missMaxGates int
	setups                     int // set-ups per run; the median is reported
	hitSetups                  int // the same for serve-hit, whose set-up primes 50 requests
	jointDigest                int // joint-large operations the output digest covers
	missDigest                 int // serve-miss requests the output digest covers
	checks                     int // serve-miss requests re-solved offline and compared
	probes                     int // joint-large and serve-hit inputs the layer probes measure
}

func fullScale() scale {
	return scale{
		jointGates: 12000, jointDepth: 80,
		missMinGates: 200, missMaxGates: 1500,
		setups: 9, hitSetups: 5,
		jointDigest: 2, missDigest: 64,
		checks: 8, probes: 2,
	}
}

// Operation IDs of spans outside the measured loops.
const (
	opSetup      = 2_000_000 // + index within the set-up
	opServeProbe = 3_000_000
)

// phase is one measured loop and the set-ups that preceded it.
type phase struct {
	setups     []time.Duration
	lat        []time.Duration // operations that ran: done, or failed by the solver
	attempted  int
	failed     int // failed, refused, lost in transport, or output mismatch
	elapsed    time.Duration
	allocBytes uint64
	peakRSS    float64   // MB
	respBytes  []float64 // response sizes, traced serve loops only
	failTexts  []string  // a few
	mismatched int
	mismatches []string // a few
}

// metrics are the end-to-end metrics, named as in BENCHMARK.json.
func (p phase) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":     {quantile(p.setups, 0.5).Seconds(), "s"},
		"req_p50_ms":  {ms(quantile(p.lat, 0.5)), "ms"},
		"req_p90_ms":  {ms(quantile(p.lat, 0.9)), "ms"},
		"req_per_s":   {float64(len(p.lat)) / max(p.elapsed.Seconds(), 1e-9), "1/s"},
		"peak_rss_mb": {p.peakRSS, "MB"},
	}
}

// add accounts one operation. An operation with a mismatch counts as failed
// once, however it failed.
func (p *phase) add(ran, failed, mismatched bool, lat time.Duration) {
	p.attempted++
	if ran {
		p.lat = append(p.lat, lat)
	}
	if mismatched {
		p.mismatched++
	}
	if failed || mismatched {
		p.failed++
	}
}

// addNote keeps the text of a failed or mismatched operation, a few of each.
func (p *phase) addNote(n note) {
	switch {
	case n.mismatch && len(p.mismatches) < 2*maxNotes:
		p.mismatches = append(p.mismatches, n.text)
	case !n.mismatch && len(p.failTexts) < 2*maxNotes:
		p.failTexts = append(p.failTexts, n.text)
	}
}

func (p *phase) finish() error {
	var err error
	p.peakRSS, err = peakRSSMB()
	return err
}

type report struct {
	workload, inputDigest, digest string
	seed                          int64
	trace                         bool
	untraced                      phase
	traced                        *phase
	mismatches                    []string
	layers                        map[string]float64
	spans                         []span
}

func (r *report) attempted() int {
	n := 0
	for _, p := range r.phases() {
		n += p.attempted
	}
	return n
}

func (r *report) failed() int {
	n := 0
	for _, p := range r.phases() {
		n += p.failed
	}
	return n
}

// phases returns the measured phases of the run.
func (r *report) phases() []*phase {
	if r.traced != nil {
		return []*phase{&r.untraced, r.traced}
	}
	return []*phase{&r.untraced}
}

// correct reports whether every checked output matched.
func (r *report) correct() bool {
	n := len(r.mismatches)
	for _, p := range r.phases() {
		n += p.mismatched
	}
	return n == 0
}

// mismatchTexts lists the mismatches found, a few per phase.
func (r *report) mismatchTexts() []string {
	out := append([]string(nil), r.mismatches...)
	for _, p := range r.phases() {
		out = append(out, p.mismatches...)
	}
	return out
}

// run executes one workload.
func run(o options) (*report, error) {
	r := &report{workload: o.workload, seed: o.seed, trace: o.trace}
	var err error
	switch o.workload {
	case "joint-large":
		err = r.runJoint(o)
	case "serve-miss":
		err = r.runMiss(o)
	case "serve-hit":
		err = r.runHit(o)
	default:
		err = fmt.Errorf("unknown --workload %q (want joint-large, serve-miss or serve-hit)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// digestTexts hashes the texts of operations 0..n-1.
func digestTexts(texts map[int]string, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		t, ok := texts[i]
		if !ok {
			return fmt.Sprintf("incomplete (operation %d of %d missing)", i, n)
		}
		fmt.Fprintf(h, "%d %d\n%s", i, len(t), t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// builtinNetlist renders a built-in circuit as an inline netlist.
func builtinNetlist(name string, fcHz float64) (netlist, error) {
	c, err := netgen.LoadNamed(name)
	if err != nil {
		return netlist{}, err
	}
	return netlist{name: name, text: circuit.BenchString(c), fcHz: fcHz, gates: c.NumLogic()}, nil
}

// repeatSetup runs a set-up n times and returns each duration; the value of
// the last run is kept, earlier ones are released with drop.
func repeatSetup[T any](n int, setup func(k int) (T, error), drop func(T) error) (T, []time.Duration, error) {
	var last T
	var ds []time.Duration
	for k := 0; k < n; k++ {
		start := time.Now()
		v, err := setup(k)
		ds = append(ds, time.Since(start))
		if err != nil {
			return last, nil, err
		}
		if k < n-1 {
			if err := drop(v); err != nil {
				return last, nil, err
			}
		}
		last = v
	}
	return last, ds, nil
}

// ---- joint-large: one serial offline caller ----

func (r *report) runJoint(o options) error {
	pool := jointPool(o.seed, o.sc)
	lU, lT := o.loops()
	if err := pool.prefill(max(lU.ops, o.sc.jointDigest)); err != nil {
		return err
	}
	var err error
	if r.inputDigest, err = pool.digest(o.sc.jointDigest); err != nil {
		return err
	}
	warm, err := builtinNetlist("s298", 300e6)
	if err != nil {
		return err
	}
	// Set-up: warm the offline pipeline on the paper's s298, so lazy
	// initialization and heap growth are not charged to the first solve.
	warmup := func(tr *tracer, op int64) (struct{}, error) {
		var s *solved
		tr.timed(op, -1, "setup", func(id int) { s = solveOffline(tr, op, id, warm) })
		if s.err != nil {
			return struct{}{}, fmt.Errorf("warm-up solve: %w", s.err)
		}
		return struct{}{}, nil
	}
	_, setups, err := repeatSetup(o.sc.setups, func(int) (struct{}, error) { return warmup(nil, 0) },
		func(struct{}) error { return nil })
	if err != nil {
		return err
	}
	var outs map[int]string
	r.untraced, outs, _, err = r.jointPhase(nil, pool, lU, o.sc.jointDigest, 0)
	if err != nil {
		return err
	}
	r.untraced.setups = setups
	r.digest = digestTexts(outs, o.sc.jointDigest)
	if err := r.untraced.finish(); err != nil || !o.trace {
		return err
	}

	tr := newTracer()
	_, tSetups, err := repeatSetup(1, func(int) (struct{}, error) { return warmup(tr, opSetup) },
		func(struct{}) error { return nil })
	if err != nil {
		return err
	}
	t, _, kept, err := r.jointPhase(tr, pool, lT, 0, o.sc.probes)
	if err != nil {
		return err
	}
	t.setups = tSetups
	var samples []layerSample
	for i, s := range kept {
		n, err := pool.get(i)
		if err != nil {
			return err
		}
		samples = append(samples, probeLayers(tr, int64(i), n, s))
	}
	// The serve layer, probed on the first input: a miss, then a hit.
	n0, err := pool.get(0)
	if err != nil {
		return err
	}
	side, err := r.serveProbe(tr, n0)
	if err != nil {
		return err
	}
	if err := t.finish(); err != nil {
		return err
	}
	r.traced = &t
	r.spans = tr.snapshot()
	r.layers = computeLayers(r.spans, samples, r.untraced, t, pool.generateTimes(), side)
	return nil
}

// jointPhase solves the pool's first ls.ops netlists in order, serially. It
// returns the output texts of the first digestN operations and the first
// keep solves, for the layer probes.
func (r *report) jointPhase(tr *tracer, pool *netlistPool, ls loopSize, digestN, keep int) (phase, map[int]string, []*solved, error) {
	var p phase
	outs := make(map[int]string)
	var kept []*solved
	for i := 0; i < ls.ops && p.elapsed < ls.guard; i++ {
		n, err := pool.get(i)
		if err != nil {
			return p, nil, nil, err
		}
		var s *solved
		a0 := heapAllocBytes()
		op := int64(i)
		d := tr.timed(op, -1, "joint.solve", func(id int) { s = solveOffline(tr, op, id, n) })
		p.allocBytes += heapAllocBytes() - a0
		p.elapsed += d
		bad := s.check()
		p.add(true, s.err != nil, bad != nil, d)
		switch {
		case bad != nil:
			p.addNote(note{true, bad.Error()})
		case s.err != nil:
			p.addNote(note{false, fmt.Sprintf("operation %d: %s", i, firstLine(s.text()))})
		}
		if i < digestN {
			outs[i] = s.text()
		}
		if i < keep {
			kept = append(kept, s)
		}
	}
	return p, outs, kept, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// serveProbe measures the serve layer on one input for a workload whose
// operations do not pass through the service: it submits the netlist as
// an optimize/joint job (a miss) and then again (a hit).
func (r *report) serveProbe(tr *tracer, n netlist) (side serveSide, err error) {
	svc := startService(tr)
	defer func() {
		if cerr := svc.close(); err == nil {
			err = cerr
		}
	}()
	before, err := svc.stats()
	if err != nil {
		return serveSide{}, err
	}
	req := &serve.Request{Kind: serve.KindOptimize, Bench: n.text, Mode: "joint", FcHz: n.fcHz}
	miss := svc.submitWait(opServeProbe, "serve.prime", req)
	hit := svc.submitWait(opServeProbe+1, "serve.request", req)
	after, err := svc.stats()
	if err != nil {
		return serveSide{}, err
	}
	if miss.ok && !bytes.Equal(miss.result, hit.result) {
		r.mismatches = append(r.mismatches, "serve probe: cache hit differs from the miss that filled it")
	}
	return serveSide{respBytes: []float64{float64(hit.bodyBytes)}, hitRatio: hitRatio(before, after)}, nil
}

// ---- serve-miss and serve-hit: two closed-loop clients ----

// serveSide is what the per-layer metrics read from a traced serve loop.
type serveSide struct {
	respBytes []float64
	hitRatio  float64
}

func hitRatio(before, after serve.Stats) float64 {
	h := after.CacheHits - before.CacheHits
	m := after.CacheMiss - before.CacheMiss
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// servePhase runs the closed loop against svc. mk builds request idx; after
// inspects each reply on the client goroutine that received it, and may
// set its mismatch. keepSizes records response sizes for the layer metrics.
func servePhase(svc *service, ls loopSize, keepSizes bool, mk func(idx int) (*serve.Request, error), after func(idx int, rp *reply)) (phase, error) {
	var mu sync.Mutex
	var herr error
	a0 := heapAllocBytes()
	samples, notes, elapsed := closedLoop(clients, ls.ops, ls.guard, func(idx int) reply {
		req, err := mk(idx)
		if err != nil {
			mu.Lock()
			herr = err
			mu.Unlock()
			return reply{errText: err.Error()}
		}
		rp := svc.submitWait(int64(idx), "serve.request", req)
		after(idx, &rp)
		return rp
	})
	p := phase{elapsed: elapsed, allocBytes: heapAllocBytes() - a0}
	for _, s := range samples {
		p.add(s.ran, !s.ok, s.mismatched, s.lat)
		if keepSizes {
			p.respBytes = append(p.respBytes, float64(s.bodyBytes))
		}
	}
	for _, n := range notes {
		p.addNote(n)
	}
	return p, herr
}

// startWarm starts a service and warms both client connections with an
// uncached s298 solve each. The warm-up requests carry no spans, so the
// serve layer's metrics see only the measured requests.
func startWarm(tr *tracer) (*service, error) {
	svc := startService(tr)
	req := &serve.Request{Kind: serve.KindOptimize, Circuit: "s298", Mode: "joint", NoCache: true}
	_, notes, _ := closedLoop(clients, clients, time.Hour, func(idx int) reply {
		return svc.submitWait(opSetup+int64(idx), "", req)
	})
	if len(notes) > 0 {
		_ = svc.close() // the warm-up error is the one to report
		return nil, fmt.Errorf("warm-up request: %s", notes[0].text)
	}
	return svc, nil
}

func (r *report) runMiss(o options) error {
	pool := missPool(o.seed, o.sc)
	lU, lT := o.loops()
	if err := pool.prefill(max(lU.ops, o.sc.missDigest)); err != nil {
		return err
	}
	var err error
	if r.inputDigest, err = pool.digest(o.sc.missDigest); err != nil {
		return err
	}
	mk := func(idx int) (*serve.Request, error) {
		n, err := pool.get(idx)
		if err != nil {
			return nil, err
		}
		return &serve.Request{Kind: serve.KindOptimize, Bench: n.text, Mode: "joint", FcHz: n.fcHz}, nil
	}
	// Served outputs of the digest's requests, for the digest and the
	// offline comparison.
	type served struct {
		text string
		ok   bool
	}
	loop := func(svc *service, ls loopSize, traced bool) (phase, map[int]served, error) {
		var mu sync.Mutex
		outs := make(map[int]served)
		p, err := servePhase(svc, ls, traced, mk, func(idx int, rp *reply) {
			if idx < o.sc.missDigest {
				mu.Lock()
				outs[idx] = served{rp.text(), rp.ok}
				mu.Unlock()
			}
		})
		return p, outs, err
	}

	svc, setups, err := repeatSetup(o.sc.setups, func(int) (*service, error) { return startWarm(nil) }, (*service).close)
	if err != nil {
		return err
	}
	u, uOuts, err := loop(svc, lU, false)
	if err != nil {
		return err
	}
	if err := svc.close(); err != nil {
		return err
	}
	u.setups = setups
	texts := make(map[int]string, len(uOuts))
	for i, s := range uOuts {
		texts[i] = s.text
	}
	r.digest = digestTexts(texts, o.sc.missDigest)

	var tr *tracer
	var t phase
	var tOuts map[int]served
	var side serveSide
	if o.trace {
		tr = newTracer()
		svc, tSetups, err := repeatSetup(1, func(int) (*service, error) { return startWarm(tr) }, (*service).close)
		if err != nil {
			return err
		}
		before, err := svc.stats()
		if err != nil {
			return err
		}
		if t, tOuts, err = loop(svc, lT, true); err != nil {
			return err
		}
		after, err := svc.stats()
		if err != nil {
			return err
		}
		if err := svc.close(); err != nil {
			return err
		}
		t.setups = tSetups
		side = serveSide{respBytes: t.respBytes, hitRatio: hitRatio(before, after)}
	}

	// Check a seeded sample against the offline pipeline; in a traced run
	// the same offline solves are the layer probes.
	var samples []layerSample
	for _, idx := range sampleIndices(o.seed, o.sc.checks, o.sc.missDigest) {
		n, err := pool.get(idx)
		if err != nil {
			return err
		}
		var s *solved
		tr.timed(int64(idx), -1, "offline.solve", func(id int) { s = solveOffline(tr, int64(idx), id, n) })
		want := s.text()
		for _, ph := range []struct {
			p    *phase
			outs map[int]served
		}{{&u, uOuts}, {&t, tOuts}} {
			got, ok := ph.outs[idx]
			if !ok || got.text == want {
				continue
			}
			ph.p.mismatched++
			ph.p.addNote(note{true, fmt.Sprintf("serve-miss request %d: served output differs from offline PrintResult", idx)})
			if got.ok {
				ph.p.failed++
			}
		}
		if o.trace {
			samples = append(samples, probeLayers(tr, int64(idx), n, s))
		}
	}
	if err := u.finish(); err != nil {
		return err
	}
	r.untraced = u
	if !o.trace {
		return nil
	}
	if err := t.finish(); err != nil {
		return err
	}
	r.traced = &t
	r.spans = tr.snapshot()
	r.layers = computeLayers(r.spans, samples, u, t, pool.generateTimes(), side)
	return nil
}

func (r *report) runHit(o options) error {
	reqs, genTimes, err := hitRequestSet()
	if err != nil {
		return err
	}
	h := sha256.New()
	for _, q := range reqs {
		fmt.Fprintf(h, "%s %s %s %d\n", q.Kind, q.Mode, q.Circuit, len(q.Bench))
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(h, "%d ", hitMix(o.seed, i, len(reqs)))
	}
	r.inputDigest = hex.EncodeToString(h.Sum(nil))

	// Set-up: start a server and prime its result cache with every request
	// of the set; the recorded results are what every replay must equal.
	prime := func(tr *tracer) (*service, map[int]reply, error) {
		svc := startService(tr)
		var mu sync.Mutex
		primed := make(map[int]reply, len(reqs))
		_, _, _ = closedLoop(clients, len(reqs), time.Hour, func(idx int) reply {
			rp := svc.submitWait(opSetup+int64(idx), "serve.prime", &reqs[idx])
			mu.Lock()
			primed[idx] = rp
			mu.Unlock()
			return rp
		})
		return svc, primed, nil
	}
	type primedSvc struct {
		svc    *service
		primed map[int]reply
	}
	setup := func(tr *tracer) func(int) (primedSvc, error) {
		return func(int) (primedSvc, error) {
			svc, primed, err := prime(tr)
			return primedSvc{svc, primed}, err
		}
	}
	drop := func(p primedSvc) error { return p.svc.close() }
	loop := func(ps primedSvc, ls loopSize, traced bool) (phase, error) {
		return servePhase(ps.svc, ls, traced,
			func(idx int) (*serve.Request, error) { return &reqs[hitMix(o.seed, idx, len(reqs))], nil },
			func(idx int, rp *reply) {
				want := ps.primed[hitMix(o.seed, idx, len(reqs))]
				if rp.ok && !bytes.Equal(rp.result, want.result) {
					rp.mismatch = fmt.Sprintf("serve-hit request %d: response differs from the primed result", idx)
				}
			})
	}

	lU, lT := o.loops()
	ps, setups, err := repeatSetup(o.sc.hitSetups, setup(nil), drop)
	if err != nil {
		return err
	}
	texts := make(map[int]string, len(reqs))
	for i, rp := range ps.primed {
		texts[i] = rp.text()
	}
	r.digest = digestTexts(texts, len(reqs))
	u, err := loop(ps, lU, false)
	if err != nil {
		return err
	}
	if err := drop(ps); err != nil {
		return err
	}
	u.setups = setups
	if err := u.finish(); err != nil {
		return err
	}
	r.untraced = u
	if !o.trace {
		return nil
	}

	tr := newTracer()
	ps, tSetups, err := repeatSetup(1, setup(tr), drop)
	if err != nil {
		return err
	}
	before, err := ps.svc.stats()
	if err != nil {
		return err
	}
	t, err := loop(ps, lT, true)
	if err != nil {
		return err
	}
	after, err := ps.svc.stats()
	if err != nil {
		return err
	}
	if err := drop(ps); err != nil {
		return err
	}
	t.setups = tSetups

	// Layer probes on the first distinct circuits of the replay sequence,
	// solved offline with optimize/joint at 300 MHz.
	var samples []layerSample
	seen := make(map[string]bool)
	for i := 0; len(seen) < o.sc.probes && i < 1000; i++ {
		q := reqs[hitMix(o.seed, i, len(reqs))]
		name := q.Circuit
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		n, err := builtinNetlist(name, 300e6)
		if err != nil {
			return err
		}
		var s *solved
		tr.timed(int64(i), -1, "offline.solve", func(id int) { s = solveOffline(tr, int64(i), id, n) })
		samples = append(samples, probeLayers(tr, int64(i), n, s))
	}
	if err := t.finish(); err != nil {
		return err
	}
	r.traced = &t
	r.spans = tr.snapshot()
	r.layers = computeLayers(r.spans, samples, u, t, genTimes, serveSide{respBytes: t.respBytes, hitRatio: hitRatio(before, after)})
	return nil
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmosopt/internal/cli"
	"cmosopt/internal/device"
	"cmosopt/internal/obs"
)

const c17Bench = `# c17
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

// newTestServer stands a server up behind httptest and returns a client
// aimed at it. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, &Client{BaseURL: ts.URL}
}

// gatedRunner blocks every job until released (or its context ends), so
// tests control queue occupancy exactly instead of racing real work.
type gatedRunner struct {
	started chan struct{} // one receive per job that reached the runner
	release chan struct{} // close to let all blocked jobs finish
	runs    atomic.Int64
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gatedRunner) run(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
	n := g.runs.Add(1)
	g.started <- struct{}{}
	select {
	case <-g.release:
		return &Result{Output: fmt.Sprintf("run %d\n", n)}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (g *gatedRunner) waitStart(t *testing.T) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("no job reached the runner")
	}
}

func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: newGatedRunner().run})
	if !c.Healthy(context.Background()) {
		t.Error("healthz not ok")
	}
}

// Admission control: with one executor busy and the queue full, the next
// submission is rejected with 429 + Retry-After; once the queue drains the
// same request is accepted again.
func TestAdmissionQueueFullThenDrain(t *testing.T) {
	g := newGatedRunner()
	_, c := newTestServer(t, Config{Executors: 1, QueueDepth: 1, Runner: g.run})
	ctx := context.Background()

	// NoCache keeps every submission independent of the others.
	req := func() *Request { return &Request{Circuit: "s27", NoCache: true} }

	a, err := c.Submit(ctx, req())
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	g.waitStart(t) // a occupies the sole executor
	b, err := c.Submit(ctx, req())
	if err != nil {
		t.Fatalf("submit b: %v", err) // b occupies the sole queue slot
	}

	_, err = c.Submit(ctx, req())
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("third submit: err = %v, want QueueFullError", err)
	}
	if qf.RetryAfter < 1 {
		t.Errorf("Retry-After = %d, want >= 1", qf.RetryAfter)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 || st.Accepted != 2 || st.QueueDepth != 1 || st.QueueCap != 1 {
		t.Errorf("stats after rejection: %+v", st)
	}

	// Drain: release the gate, wait for both jobs, then submit again.
	close(g.release)
	for _, id := range []string{a.ID, b.ID} {
		fin, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if fin.State != StateDone {
			t.Errorf("job %s state = %s, want done", id, fin.State)
		}
	}
	d, err := c.SubmitWait(ctx, req())
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if d.State != StateDone {
		t.Errorf("post-drain job state = %s, want done", d.State)
	}
}

// Cancellation: a queued job resolves to canceled immediately; a running
// job's context is canceled and the executor records the abort.
func TestCancelQueuedAndRunning(t *testing.T) {
	g := newGatedRunner()
	_, c := newTestServer(t, Config{Executors: 1, QueueDepth: 2, Runner: g.run})
	ctx := context.Background()

	running, err := c.Submit(ctx, &Request{Circuit: "s27", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStart(t)
	queued, err := c.Submit(ctx, &Request{Circuit: "c17", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("queued job after cancel: state = %s, want canceled immediately", st.State)
	}

	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled || fin.Error == "" {
		t.Errorf("running job after cancel: %+v", fin)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Canceled != 2 {
		t.Errorf("canceled count = %d, want 2", stats.Canceled)
	}
}

// The registry's serve.* counters are the shutdown manifest's copy of
// /v1/stats, so after a failed, a panicked, an unencodable, a done, a cached
// and a canceled-while-running job every one of them must equal its Stats
// field. A runner panic fails only its own job: the sole executor survives
// it and runs the next request. A result JSON cannot carry fails its job
// rather than answering with an empty body.
func TestLifecycleCountersMatchStats(t *testing.T) {
	g := newGatedRunner() // never released: only a cancel ends its jobs
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		switch req.Circuit {
		case "s27":
			return &Result{Output: "done\n"}, nil
		case "c17":
			return nil, errors.New("runner failed")
		case "s344":
			panic("runner blew up")
		case "s349":
			return &Result{Manifest: &obs.Manifest{FcHz: math.NaN()}}, nil
		}
		return g.run(ctx, req, workers, reg)
	}
	reg := obs.NewRegistry()
	s, c := newTestServer(t, Config{Executors: 1, Runner: runner, Obs: reg})
	ctx := context.Background()

	for _, tc := range []struct{ circuit, state, err string }{
		{"c17", StateFailed, "runner failed"},
		{"s344", StateFailed, "runner blew up"},
		{"s349", StateFailed, "encoding result"},
		{"s27", StateDone, ""},
		{"s27", StateDone, ""}, // a cache hit
	} {
		fin, err := c.SubmitWait(ctx, &Request{Circuit: tc.circuit})
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != tc.state || !strings.Contains(fin.Error, tc.err) {
			t.Fatalf("%s: state = %s, error %q, want %s with error %q", tc.circuit, fin.State, fin.Error, tc.state, tc.err)
		}
	}
	running, err := c.Submit(ctx, &Request{Circuit: "s298"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStart(t)
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, running.ID); err != nil || fin.State != StateCanceled {
		t.Fatalf("running job after cancel: %+v, %v", fin, err)
	}

	st := s.stats()
	if st.Done != 1 || st.Failed != 3 || st.Canceled != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want one done, three failed, one canceled and one cache hit", st)
	}
	want := map[string]int64{
		"serve.accepted":     st.Accepted,
		"serve.rejected":     st.Rejected,
		"serve.done":         st.Done,
		"serve.failed":       st.Failed,
		"serve.canceled":     st.Canceled,
		"serve.cache_hits":   st.CacheHits,
		"serve.cache_misses": st.CacheMiss,
	}
	got := reg.Snapshot().Counters
	for name, v := range want {
		if got[name] != v {
			t.Errorf("registry %s = %d, /v1/stats says %d", name, got[name], v)
		}
	}
	// serve.body_hits is the share of cache_hits answered without decoding,
	// with no /v1/stats field of its own; the one hit here replays the first
	// s27 body byte for byte.
	if got["serve.body_hits"] != 1 {
		t.Errorf("registry serve.body_hits = %d, want 1", got["serve.body_hits"])
	}
	for name := range got {
		if _, ok := want[name]; strings.HasPrefix(name, "serve.") && !ok && name != "serve.body_hits" {
			t.Errorf("registry counter %s has no /v1/stats field", name)
		}
	}
}

// A request-level deadline cancels the job without any client action.
func TestRequestDeadline(t *testing.T) {
	g := newGatedRunner() // never released: only the deadline can end the job
	_, c := newTestServer(t, Config{Runner: g.run})
	fin, err := c.SubmitWait(context.Background(),
		&Request{Circuit: "s27", NoCache: true, TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCanceled {
		t.Errorf("deadline job state = %s, want canceled", fin.State)
	}
}

// Cache keying end to end: an identical request is a hit (runner not
// invoked), a different constraint is a miss, nocache bypasses entirely.
func TestResultCacheHitMissKeying(t *testing.T) {
	g := newGatedRunner()
	close(g.release) // run everything straight through
	_, c := newTestServer(t, Config{Runner: g.run})
	ctx := context.Background()

	first, firstRaw, err := c.SubmitWaitRaw(ctx, &Request{Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.State != StateDone || first.Result == nil {
		t.Fatalf("first request: %+v", first)
	}

	// Same job with defaults spelled out: must hit, byte-identically.
	hit, hitRaw, err := c.SubmitWaitRaw(ctx, &Request{Circuit: "s27", Mode: "joint", FcHz: 300e6})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || len(hitRaw) == 0 || !bytes.Equal(hitRaw, firstRaw) {
		t.Errorf("identical request missed or diverged: %+v\n%s\nvs\n%s", hit, hitRaw, firstRaw)
	}
	if got := g.runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times, want 1 (cache hit)", got)
	}

	// A different constraint is a different key.
	miss, err := c.SubmitWait(ctx, &Request{Circuit: "s27", FcHz: 200e6})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Error("different fc_hz hit the cache")
	}

	// nocache bypasses both lookup and insert.
	bypass, err := c.SubmitWait(ctx, &Request{Circuit: "s27", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if bypass.Cached || bypass.Key != "" {
		t.Errorf("nocache request touched the cache: %+v", bypass)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMiss != 2 {
		t.Errorf("cache counters: %+v", st)
	}
}

// A canceled run must never populate the cache: the follow-up identical
// request re-runs and serves the complete result.
func TestCanceledRunNotCached(t *testing.T) {
	g := newGatedRunner()
	_, c := newTestServer(t, Config{Runner: g.run})
	ctx := context.Background()

	a, err := c.Submit(ctx, &Request{Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStart(t)
	if _, err := c.Cancel(ctx, a.ID); err != nil {
		t.Fatal(err)
	}
	if fin, err := c.Wait(ctx, a.ID); err != nil || fin.State != StateCanceled {
		t.Fatalf("canceled job: %+v, %v", fin, err)
	}

	close(g.release)
	b, err := c.SubmitWait(ctx, &Request{Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cached {
		t.Error("follow-up after canceled run hit the cache")
	}
	if b.State != StateDone || b.Result == nil {
		t.Errorf("follow-up: %+v", b)
	}
}

// A finished job's result is cached before its waiters are released, so a
// client that resubmits the moment its wait returns must hit. Each
// iteration uses a fresh key: the first request runs, the second must hit.
// The race needs the executor to stall between releasing the waiters and
// caching; garbage from each run makes that likely under -race, through
// the collector work the executor owes at its next allocation.
func TestResubmitAfterWaitHitsCache(t *testing.T) {
	var garbage atomic.Pointer[[][]byte]
	run := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		var g [][]byte
		for k := 0; k < 64; k++ {
			g = append(g, make([]byte, 16<<10))
		}
		garbage.Store(&g)
		return &Result{Output: fmt.Sprintf("fc %g\n", req.FcHz)}, nil
	}
	_, c := newTestServer(t, Config{Runner: run})
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		req := func() *Request { return &Request{Circuit: "s27", FcHz: float64(100+i) * 1e6} }
		first, err := c.SubmitWait(ctx, req())
		if err != nil {
			t.Fatal(err)
		}
		if first.State != StateDone || first.Cached {
			t.Fatalf("iteration %d, first request: %+v", i, first)
		}
		again, err := c.SubmitWait(ctx, req())
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("iteration %d: resubmitting right after the wait missed the cache", i)
		}
	}
}

// A cache hit never runs, so its job context must be released at once: an
// uncanceled context stays registered on the server's base context (and,
// with a deadline, keeps a live timer) for the server's lifetime. Canceling
// a hit through the API still answers with the finished job.
func TestCacheHitReleasesJobContext(t *testing.T) {
	g := newGatedRunner()
	close(g.release)
	for _, timeout := range []time.Duration{0, time.Hour} {
		s, c := newTestServer(t, Config{Runner: g.run, DefaultTimeout: timeout})
		ctx := context.Background()
		if _, err := c.SubmitWait(ctx, &Request{Circuit: "s27"}); err != nil {
			t.Fatal(err)
		}
		hit, err := c.Submit(ctx, &Request{Circuit: "s27"})
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached {
			t.Fatalf("timeout %v: second request missed the cache: %+v", timeout, hit)
		}
		j, ok := s.jobByID(hit.ID)
		if !ok {
			t.Fatalf("timeout %v: cache-hit job %s not addressable", timeout, hit.ID)
		}
		if j.ctx.Err() == nil {
			t.Errorf("timeout %v: cache-hit job context still live", timeout)
		}
		st, err := c.Cancel(ctx, hit.ID)
		if err != nil {
			t.Fatalf("timeout %v: cancel cache hit: %v", timeout, err)
		}
		if st.State != StateDone || !st.Cached || st.Result == nil {
			t.Errorf("timeout %v: cache hit after cancel: %+v", timeout, st)
		}
	}
}

// The real pipeline end to end: a served sweep must render byte-identically
// to the offline cli helpers for the same request, and a cancel-then-retry
// sequence must not perturb that (engine scratch is per-job).
func TestServedSweepByteIdenticalToOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer")
	}
	_, c := newTestServer(t, Config{}) // DefaultRunner
	ctx := context.Background()

	req := func() *Request {
		return &Request{Kind: KindSweep, Circuit: "s27", FromHz: 100e6, ToHz: 300e6, Points: 3, Format: "csv"}
	}

	// Offline reference through the exact cli path cmd/sweep uses.
	params := cli.SweepParams{Circuit: "s27", FromHz: 100e6, ToHz: 300e6, Points: 3, Activity: 0.5, Workers: 1}
	ct, pts, best, err := cli.RunSweep(params, device.Default350(), obs.NewRegistry(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	var offline bytes.Buffer
	if err := cli.RenderSweep(&offline, "csv", cli.SweepTable(ct.Name, 0.5, pts, best)); err != nil {
		t.Fatal(err)
	}

	// First a canceled attempt (cancellation must leave no residue), then
	// the served run, then a cache hit — all three must agree bytewise.
	early, err := c.Submit(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, early.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, early.ID); err != nil {
		t.Fatal(err)
	}

	served, err := c.SubmitWait(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	if served.State != StateDone {
		t.Fatalf("served sweep: %+v", served)
	}
	if served.Result.Output != offline.String() {
		t.Errorf("served output diverges from offline:\n-- served --\n%s-- offline --\n%s",
			served.Result.Output, offline.String())
	}
	if served.Result.Manifest == nil || served.Result.Manifest.Schema != obs.SchemaVersion {
		t.Errorf("served manifest missing or unversioned: %+v", served.Result.Manifest)
	}

	again, err := c.SubmitWait(ctx, req())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Result.Output != offline.String() {
		t.Errorf("cache replay diverges (cached=%v)", again.Cached)
	}
}

// Served optimize requests and cmd/lowpower run every mode from the same
// cli table, so a served report is byte-identical to the tool's for the
// same constraints.
func TestServedOptimizeByteIdenticalToLowPower(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer")
	}
	for _, mode := range []string{"joint", "baseline", "anneal", "multivt", "dualvdd", "sensitivity"} {
		req := &Request{Circuit: "s27", Mode: mode, M: 8}
		if err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		res, err := DefaultRunner(context.Background(), req, 1, nil)
		if err != nil {
			t.Fatalf("%s: served: %v", mode, err)
		}
		var want bytes.Buffer
		if err := cli.LowPower([]string{"-circuit", "s27", "-mode", mode, "-M", "8"}, &want); err != nil {
			t.Fatalf("%s: lowpower: %v", mode, err)
		}
		if res.Output != want.String() {
			t.Errorf("%s: served report differs from cmd/lowpower\n--- served ---\n%s--- lowpower ---\n%s",
				mode, res.Output, want.String())
		}
	}
}

// An uploaded netlist is addressable by hash and optimizable.
func TestNetlistUploadAndOptimize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer")
	}
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	hash, err := c.UploadNetlist(ctx, c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	if hash != HashNetlist(c17Bench) {
		t.Errorf("upload hash %s != content hash", hash)
	}

	fin, err := c.SubmitWait(ctx, &Request{NetlistSHA256: hash, FcHz: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result == nil || fin.Result.Output == "" {
		t.Fatalf("optimize uploaded netlist: %+v", fin)
	}

	// Inline submission of the same text shares the cache entry.
	inline, err := c.SubmitWait(ctx, &Request{Bench: c17Bench, FcHz: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	if !inline.Cached || inline.Result.Output != fin.Result.Output {
		t.Errorf("inline netlist did not hit the uploaded entry (cached=%v)", inline.Cached)
	}
}

func TestNetlistUploadRejectsGarbage(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: newGatedRunner().run})
	if _, err := c.UploadNetlist(context.Background(), "this is not a netlist"); err == nil {
		t.Error("garbage upload accepted")
	}
}

func TestSubmitUnknownNetlistHash(t *testing.T) {
	_, c := newTestServer(t, Config{Runner: newGatedRunner().run})
	_, err := c.Submit(context.Background(),
		&Request{NetlistSHA256: HashNetlist("never uploaded")})
	if err == nil {
		t.Error("submit with unknown netlist hash accepted")
	}
}

// A technology override the device model cannot use is refused at admission
// with a 400, never queued as a job.
func TestSubmitRejectsNonFiniteTech(t *testing.T) {
	s, _ := newTestServer(t, Config{Runner: newGatedRunner().run})
	for _, tech := range []string{"vtsmax = Inf", "cmi = NaN"} {
		body, err := json.Marshal(Request{Circuit: "s27", Tech: tech})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "must be finite") {
			t.Errorf("tech %q: %d %s, want 400 naming the bad value", tech, rec.Code, rec.Body)
		}
	}
	if st := s.stats(); st.Accepted != 0 {
		t.Errorf("stats = %+v, want nothing accepted", st)
	}
}

// SSE: the event stream delivers progress frames built from the job's span
// tree and a terminal done frame carrying the full status. A subscriber that
// arrives after the job ended gets the live stream's final span paths and
// counts in one progress frame, and the same done frame.
func TestEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer")
	}
	_, c := newTestServer(t, Config{ProgressInterval: 5 * time.Millisecond})
	ctx := context.Background()

	sub, err := c.Submit(ctx, &Request{Circuit: "s27", FcHz: 100e6, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	live, err := subscribe(ctx, c, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.spans) == 0 {
		t.Error("no span progress delivered before done")
	}
	var done JobStatus
	if err := json.Unmarshal(live.done, &done); err != nil {
		t.Fatalf("done payload %s: %v", live.done, err)
	}
	if done.State != StateDone || done.Result == nil {
		t.Errorf("done frame: %+v", done)
	}

	late, err := subscribe(ctx, c, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if late.frames != 1 || !reflect.DeepEqual(pathsAndCounts(late.spans), pathsAndCounts(live.spans)) {
		t.Errorf("late subscriber: %d progress frame(s) with %v, want one with the live stream's final %v",
			late.frames, pathsAndCounts(late.spans), pathsAndCounts(live.spans))
	}
	if !bytes.Equal(late.done, live.done) {
		t.Errorf("late done frame differs from the live one:\n%s\n%s", late.done, live.done)
	}
}

// Shutdown cancels running and queued jobs and refuses new submissions.
func TestShutdown(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Executors: 1, QueueDepth: 4, Runner: g.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	running, err := c.Submit(ctx, &Request{Circuit: "s27", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStart(t)
	queued, err := c.Submit(ctx, &Request{Circuit: "c17", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		j, ok := s.jobByID(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st, _ := j.envelope(); st.State != StateCanceled {
			t.Errorf("job %s after shutdown: state = %s, want canceled", id, st.State)
		}
	}
	if _, err := c.Submit(ctx, &Request{Circuit: "s27"}); err == nil {
		t.Error("submission accepted after shutdown")
	}
}

// Bounded retention forgets the oldest terminal jobs but never a live one:
// a running job at the head of the submission order survives every eviction
// behind it, and the count stays at the bound.
func TestJobRetention(t *testing.T) {
	g := newGatedRunner() // holds only the s298 job
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		if req.Circuit == "s298" {
			return g.run(ctx, req, workers, reg)
		}
		return &Result{Output: "done\n"}, nil
	}
	s, c := newTestServer(t, Config{RetainJobs: 3, Runner: runner})
	ctx := context.Background()

	live, err := c.Submit(ctx, &Request{Circuit: "s298", NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStart(t)
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := c.SubmitWait(ctx, &Request{Circuit: "s27", NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		if got, want := s.stats().Retained, min(i+2, 3); got != want {
			t.Errorf("after %d submissions: retained = %d, want %d", i+2, got, want)
		}
	}
	if _, ok := s.jobByID(live.ID); !ok {
		t.Error("running job at the head evicted")
	}
	for i, id := range ids {
		if _, ok := s.jobByID(id); ok != (i >= 3) {
			t.Errorf("job %d addressable = %v, want only the two newest terminal jobs", i, ok)
		}
	}

	// Once it ends, the head job is the oldest terminal one and goes next.
	close(g.release)
	if st, err := c.Wait(ctx, live.ID); err != nil || st.State != StateDone {
		t.Fatalf("head job: %+v, %v", st, err)
	}
	if _, err := c.SubmitWait(ctx, &Request{Circuit: "s27", NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.jobByID(live.ID); ok {
		t.Error("terminal head job still addressable past the retention bound")
	}
	if got := s.stats().Retained; got != 3 {
		t.Errorf("retained = %d, want 3", got)
	}
}

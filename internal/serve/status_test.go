package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cmosopt/internal/obs"
)

// awkward holds every kind of text the encoder escapes or passes through
// specially: HTML-sensitive <, > and &, a quote, a backslash, a control
// character, U+2028 and other non-ASCII text.
const awkward = "<b>a & b</b> \"quoted\" back\\slash\ttab\x01 ünïcödé ✓ \u2028 end"

// checkStatus compares writeStatus and the SSE done frame with their
// references: writeJSON and json.Marshal encoding the job's envelope with
// res, the runner's own Result (nil unless the job is done), in it. Neither
// reference reads the stored bytes.
func checkStatus(t *testing.T, s *Server, id, state string, res *Result) {
	t.Helper()
	j, ok := s.jobByID(id)
	if !ok {
		t.Fatalf("job %s not addressable", id)
	}
	st, _ := j.envelope()
	if st.State != state {
		t.Fatalf("job %s: state %s, want %s", id, st.State, state)
	}
	st.Result = res
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeStatus(got, http.StatusAccepted, j)
	writeJSON(want, http.StatusAccepted, st)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Errorf("job %s (%s): status %d %q, want %d %q", id, state,
			got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("job %s (%s): writeStatus differs from the encoder\n--- writeStatus ---\n%s--- encoder ---\n%s",
			id, state, got.Body, want.Body)
	}

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	writeDone(&frame, j)
	if wantFrame := "event: done\ndata: " + string(data) + "\n\n"; frame.String() != wantFrame {
		t.Errorf("job %s (%s): done frame differs from json.Marshal\n--- frame ---\n%s--- json.Marshal ---\n%s",
			id, state, frame.String(), wantFrame)
	}
}

// resultsByKey records each Result a runner returns under its request's
// cache key, so a test can encode the runner's own Result for a job, a
// cache hit included.
type resultsByKey struct {
	mu sync.Mutex
	m  map[string]*Result
}

func (r *resultsByKey) wrap(run Runner) Runner {
	return func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		res, err := run(ctx, req, workers, reg)
		if err == nil {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.m == nil {
				r.m = make(map[string]*Result)
			}
			r.m[req.cacheKey()] = res
		}
		return res, err
	}
}

func (r *resultsByKey) get(key string) *Result {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[key]
}

// writeStatus and the SSE done frame must write the bytes the encoders write
// for the job's whole status, in every job state, including text the encoder
// escapes in both the result and the error.
func TestWriteStatusMatchesEncoder(t *testing.T) {
	g := newGatedRunner()
	man := obs.NewManifest("served")
	man.Circuit = awkward
	res := &Result{Output: awkward + "\n", Manifest: man}
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		if req.Circuit == "c17" {
			return nil, errors.New(awkward)
		}
		if _, err := g.run(ctx, req, workers, reg); err != nil {
			return nil, err
		}
		return res, nil
	}
	s, c := newTestServer(t, Config{Executors: 1, Runner: runner})
	ctx := context.Background()

	running, err := c.Submit(ctx, &Request{Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	g.waitStart(t)
	queued, err := c.Submit(ctx, &Request{Circuit: "s298"})
	if err != nil {
		t.Fatal(err)
	}
	checkStatus(t, s, running.ID, StateRunning, nil)
	checkStatus(t, s, queued.ID, StateQueued, nil)
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	checkStatus(t, s, queued.ID, StateCanceled, nil)

	close(g.release)
	if _, err := c.Wait(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	checkStatus(t, s, running.ID, StateDone, res)
	hit, err := c.SubmitWait(ctx, &Request{Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("resubmission missed the cache: %+v", hit)
	}
	checkStatus(t, s, hit.ID, StateDone, res)
	failed, err := c.SubmitWait(ctx, &Request{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	checkStatus(t, s, failed.ID, StateFailed, nil)
}

// The same equivalence on real results: every optimize mode and a sweep on
// s27, each as the run that stored it and as a cache hit.
func TestWriteStatusMatchesEncoderRealResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer")
	}
	var results resultsByKey
	s, c := newTestServer(t, Config{Runner: results.wrap(DefaultRunner)})
	ctx := context.Background()
	reqs := []func() *Request{func() *Request { return &Request{Kind: KindSweep, Circuit: "s27", Points: 3} }}
	for _, mode := range []string{"joint", "baseline", "anneal", "multivt", "dualvdd", "sensitivity"} {
		reqs = append(reqs, func() *Request { return &Request{Circuit: "s27", Mode: mode} })
	}
	for _, req := range reqs {
		for _, cached := range []bool{false, true} {
			st, err := c.SubmitWait(ctx, req())
			if err != nil {
				t.Fatal(err)
			}
			if st.Cached != cached || st.Result == nil {
				t.Fatalf("%+v: cached = %v with result %v, want cached = %v with a result", req(), st.Cached, st.Result != nil, cached)
			}
			checkStatus(t, s, st.ID, StateDone, results.get(st.Key))
		}
	}
}

// Concurrent executors encode one *Result that the runner shares between
// jobs, and concurrent hits then read one stored encoding. Every response
// must still equal the encoder's bytes for its own job. Run under -race.
func TestWriteStatusConcurrentHits(t *testing.T) {
	shared := &Result{Output: awkward + "\n", Manifest: obs.NewManifest("served")}
	runner := func(context.Context, *Request, int, *obs.Registry) (*Result, error) { return shared, nil }
	s, _ := newTestServer(t, Config{Executors: 2, Runner: runner})

	post := func(fcHz float64) error {
		body, err := json.Marshal(Request{Circuit: "s27", FcHz: fcHz})
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			return fmt.Errorf("decoding %s: %w", rec.Body, err)
		}
		j, ok := s.jobByID(st.ID)
		if !ok {
			return fmt.Errorf("job %s not addressable", st.ID)
		}
		ref, _ := j.envelope()
		ref.Result = shared
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, ref)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			return fmt.Errorf("job %s: response %d differs from the encoder\n--- response ---\n%s--- encoder ---\n%s",
				st.ID, rec.Code, rec.Body, want.Body)
		}
		return nil
	}

	if err := post(0); err != nil { // primes the shared entry
		t.Fatal(err)
	}
	const clients, rounds = 4, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A miss of its own, then hits on the primed entry.
			for _, fc := range append([]float64{float64(200+c) * 1e6}, make([]float64, rounds)...) {
				if err := post(fc); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := s.stats().CacheHits; got != clients*rounds {
		t.Errorf("cache hits = %d, want %d", got, clients*rounds)
	}
}

// BenchmarkServeHit measures the serve layer's cache lookup and render: one
// cache-hit POST /v1/jobs?wait=1 through Server.Handler() against a primed
// s298 joint result, with no network in between.
func BenchmarkServeHit(b *testing.B) {
	s := New(Config{})
	b.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			b.Error(err)
		}
	})
	h := s.Handler()
	send := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(`{"circuit":"s298"}`)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%d %s", rec.Code, rec.Body)
		}
		return rec
	}
	send() // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if rec := send(); !strings.Contains(rec.Body.String(), `"cached": true`) {
		b.Fatalf("not a cache hit: %s", rec.Body)
	}
}

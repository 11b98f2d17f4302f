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

	"cmosopt/internal/circuit"
	"cmosopt/internal/netgen"
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

// compactJSON reports whether b is JSON as json.Marshal writes it: json.Compact
// returns it byte for byte.
func compactJSON(b []byte) bool {
	var c bytes.Buffer
	return json.Compact(&c, b) == nil && bytes.Equal(c.Bytes(), b)
}

// compactBody reports whether an HTTP body is compact JSON followed by the
// encoder's newline.
func compactBody(body []byte) bool {
	b, ok := bytes.CutSuffix(body, []byte("\n"))
	return ok && compactJSON(b)
}

// Every JSON body the server writes is compact: job statuses in each state,
// a cache hit included, /v1/stats, the upload reply, error bodies for 400,
// 404, 429 and 503, and the data of both SSE event kinds.
func TestBodiesAreCompact(t *testing.T) {
	g := newGatedRunner()
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		if req.Circuit == "c17" {
			return nil, errors.New(awkward)
		}
		if _, err := g.run(ctx, req, workers, reg); err != nil {
			return nil, err
		}
		return &Result{Output: awkward + "\n", Manifest: obs.NewManifest("served")}, nil
	}
	s := New(Config{Executors: 1, QueueDepth: 1, Runner: runner})
	h := s.Handler()
	send := func(what, method, target, body string, code int) JobStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != code {
			t.Fatalf("%s: %d %s, want %d", what, rec.Code, rec.Body, code)
		}
		if !compactBody(rec.Body.Bytes()) {
			t.Errorf("%s: body is not compact JSON:\n%s", what, rec.Body)
		}
		var st JobStatus
		_ = json.Unmarshal(rec.Body.Bytes(), &st) // not every body is a status; status checks the state
		return st
	}
	status := func(what, method, target, body string, code int, state string) JobStatus {
		t.Helper()
		st := send(what, method, target, body, code)
		if st.State != state {
			t.Fatalf("%s: state %q, want %q", what, st.State, state)
		}
		return st
	}
	events := func(id string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil))
		seen := map[string]int{}
		for _, frame := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n") {
			event, data, ok := strings.Cut(frame, "\ndata: ")
			event, found := strings.CutPrefix(event, "event: ")
			if !ok || !found || !compactJSON([]byte(data)) {
				t.Errorf("job %s: SSE frame is not one event with compact JSON data:\n%s", id, frame)
			}
			seen[event]++
		}
		if seen["progress"] == 0 || seen["done"] != 1 {
			t.Errorf("job %s: frames %v, want progress frames and one done frame", id, seen)
		}
	}

	running := send("submit", http.MethodPost, "/v1/jobs", `{"circuit":"s27"}`, http.StatusAccepted) // queued or running
	g.waitStart(t)
	status("running", http.MethodGet, "/v1/jobs/"+running.ID, "", http.StatusOK, StateRunning)
	queued := status("queued", http.MethodPost, "/v1/jobs", `{"circuit":"s298"}`, http.StatusAccepted, StateQueued)
	send("queue full", http.MethodPost, "/v1/jobs", `{"circuit":"s344"}`, http.StatusTooManyRequests)
	status("canceled", http.MethodDelete, "/v1/jobs/"+queued.ID, "", http.StatusOK, StateCanceled)
	close(g.release)
	done := status("done", http.MethodGet, "/v1/jobs/"+running.ID+"?wait=1", "", http.StatusOK, StateDone)
	hit := status("hit", http.MethodPost, "/v1/jobs?wait=1", `{"circuit":"s27"}`, http.StatusOK, StateDone)
	if done.Result == nil || !hit.Cached {
		t.Fatalf("done %+v, hit %+v: want a result and a cache hit", done, hit)
	}
	status("failed", http.MethodPost, "/v1/jobs?wait=1", `{"circuit":"c17"}`, http.StatusOK, StateFailed)
	send("bad request", http.MethodPost, "/v1/jobs", `{"frobnicate":1}`, http.StatusBadRequest)
	send("no such job", http.MethodGet, "/v1/jobs/nope", "", http.StatusNotFound)
	send("upload", http.MethodPost, "/v1/netlists", c17Bench, http.StatusOK)
	send("stats", http.MethodGet, "/v1/stats", "", http.StatusOK)
	events(done.ID)
	events(hit.ID)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	send("shutting down", http.MethodPost, "/v1/jobs", `{"circuit":"s27","m":3}`, http.StatusServiceUnavailable)
}

// BenchmarkServeHit measures the serve layer's cache lookup and render: one
// cache-hit POST /v1/jobs?wait=1 through Server.Handler() against a primed
// joint result, with no network in between. /name replays s298 by name,
// /inline replays s510 as inline .bench text, a body of about 5.5 KB.
func BenchmarkServeHit(b *testing.B) {
	s510, err := netgen.LoadNamed("s510")
	if err != nil {
		b.Fatal(err)
	}
	inline, err := json.Marshal(Request{Bench: circuit.BenchString(s510)})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, body string }{
		{"name", `{"circuit":"s298"}`},
		{"inline", string(inline)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{})
			b.Cleanup(func() {
				if err := s.Shutdown(context.Background()); err != nil {
					b.Error(err)
				}
			})
			h := s.Handler()
			send := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(bc.body)))
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
			rec := send()
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || !st.Cached {
				b.Fatalf("not a cache hit (%v): %s", err, rec.Body)
			}
		})
	}
}

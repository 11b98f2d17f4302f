package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cmosopt/internal/obs"
)

// countingRunner finishes every job at once with an output naming its run,
// so a rerun answers with bytes of its own.
func countingRunner(runs *atomic.Int64) Runner {
	return func(context.Context, *Request, int, *obs.Registry) (*Result, error) {
		return &Result{Output: fmt.Sprintf("run %d\n", runs.Add(1))}, nil
	}
}

// answer is one POST as the client saw it.
type answer struct {
	code   int
	st     JobStatus
	result json.RawMessage // the result object's bytes as sent
	raw    []byte
}

// postRaw sends body as it stands to target through h.
func postRaw(t *testing.T, h http.Handler, target string, body []byte) answer {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	a := answer{code: rec.Code, raw: rec.Body.Bytes()}
	if a.code >= 400 {
		return a
	}
	var wire struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(a.raw, &a.st); err != nil {
		t.Fatalf("%s %q: %v: %s", target, body, err, a.raw)
	}
	if err := json.Unmarshal(a.raw, &wire); err != nil {
		t.Fatalf("%s %q: %v: %s", target, body, err, a.raw)
	}
	a.result = wire.Result
	return a
}

// submitWait is postRaw to POST /v1/jobs?wait=1.
func submitWait(t *testing.T, h http.Handler, body string) answer {
	t.Helper()
	return postRaw(t, h, "/v1/jobs?wait=1", []byte(body))
}

// upload stores a netlist and returns its content address.
func upload(t *testing.T, h http.Handler, text string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/netlists", strings.NewReader(text)))
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}
	return HashNetlist(text)
}

// hitCounts returns the registry's cache_hits and body_hits counters.
func hitCounts(reg *obs.Registry) (cache, body int64) {
	c := reg.Snapshot().Counters
	return c["serve.cache_hits"], c["serve.body_hits"]
}

// A byte-identical replay is answered from the body index: 200, cached, a
// job of its own, the first response's result bytes, and counted as a body
// hit as well as a cache hit.
func TestBodyReplayHits(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs), Obs: reg})
	h := s.Handler()
	const body = `{"circuit":"s27","fc_hz":2e8}`

	first := submitWait(t, h, body)
	if first.code != http.StatusOK || first.st.State != StateDone || first.st.Cached {
		t.Fatalf("first: %d %s", first.code, first.raw)
	}
	again := submitWait(t, h, body)
	if again.code != http.StatusOK || !again.st.Cached || again.st.ID == first.st.ID ||
		again.st.Key != first.st.Key || !bytes.Equal(again.result, first.result) {
		t.Fatalf("replay: %d %s\nfirst: %s", again.code, again.raw, first.raw)
	}
	// Without ?wait=1 too: a hit answers 200, not 202.
	if a := postRaw(t, h, "/v1/jobs", []byte(body)); a.code != http.StatusOK || !a.st.Cached || !bytes.Equal(a.result, first.result) {
		t.Fatalf("replay without wait: %d %s", a.code, a.raw)
	}
	if cache, bodies := hitCounts(reg); cache != 2 || bodies != 2 {
		t.Errorf("cache_hits %d, body_hits %d, want 2 and 2", cache, bodies)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1", n)
	}
}

// The same request encoded differently is another body: it hits through the
// decode path, and is then recorded under its own digest.
func TestReencodedBodyHitsThroughDecode(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs), Obs: reg})
	h := s.Handler()

	first := submitWait(t, h, `{"circuit":"s27","fc_hz":2e8}`)
	const reencoded = "{ \"fc_hz\": 200e6,\n  \"mode\": \"joint\", \"circuit\": \"s27\" }\n"
	for i, wantBody := range []int64{0, 1} {
		a := submitWait(t, h, reencoded)
		if a.code != http.StatusOK || !a.st.Cached || !bytes.Equal(a.result, first.result) {
			t.Fatalf("re-encoded request, send %d: %d %s", i, a.code, a.raw)
		}
		if cache, bodies := hitCounts(reg); cache != int64(i+1) || bodies != wantBody {
			t.Errorf("send %d: cache_hits %d, body_hits %d, want %d and %d", i, cache, bodies, i+1, wantBody)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1", n)
	}
}

// Only a body submitted with a cache key is recorded: a nocache body runs
// every time, even with its job's result cached, and a refused body is
// refused again.
func TestNoCacheAndRefusedBodiesNotIndexed(t *testing.T) {
	var runs atomic.Int64
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs)})
	h := s.Handler()

	if a := submitWait(t, h, `{"circuit":"s27"}`); a.st.Cached || a.st.Key == "" {
		t.Fatalf("first: %d %s", a.code, a.raw)
	}
	for i := 0; i < 2; i++ {
		a := submitWait(t, h, `{"circuit":"s27","nocache":true}`)
		if a.code != http.StatusOK || a.st.State != StateDone || a.st.Cached || a.st.Key != "" {
			t.Fatalf("nocache send %d: %d %s", i, a.code, a.raw)
		}
		if a := submitWait(t, h, `{"circuit":"s27","frobnicate":1}`); a.code != http.StatusBadRequest {
			t.Fatalf("unknown field, send %d: %d %s", i, a.code, a.raw)
		}
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("runner ran %d times, want 3: one keyed run, two nocache runs", n)
	}
	if n := s.bodies.len(); n != 1 {
		t.Errorf("body index holds %d digests, want 1: only the keyed body", n)
	}
}

// A body naming an uploaded netlist is never recorded: once the upload is
// evicted it answers 404, although its result is still cached.
func TestUploadBodyNotIndexed(t *testing.T) {
	var runs atomic.Int64
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs), NetlistEntries: 1})
	h := s.Handler()
	body := fmt.Sprintf(`{"netlist_sha256":%q}`, upload(t, h, c17Bench))

	first := submitWait(t, h, body)
	if first.code != http.StatusOK || first.st.State != StateDone {
		t.Fatalf("first: %d %s", first.code, first.raw)
	}
	if a := submitWait(t, h, body); !a.st.Cached || !bytes.Equal(a.result, first.result) {
		t.Fatalf("replay while uploaded: %d %s", a.code, a.raw)
	}
	upload(t, h, "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n") // evicts c17
	if a := submitWait(t, h, body); a.code != http.StatusNotFound {
		t.Errorf("replay after the upload was evicted: %d %s, want 404", a.code, a.raw)
	}
	if a := submitWait(t, h, fmt.Sprintf(`{"bench":%q}`, c17Bench)); !a.st.Cached {
		t.Errorf("the evicted upload's result left the cache too: %d %s", a.code, a.raw)
	}
}

// A recorded body whose result has left the cache falls through to the
// decode path: it runs again, and its next replay is a body hit.
func TestEvictedBodyReruns(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs), CacheEntries: 1, Obs: reg})
	h := s.Handler()
	const body = `{"circuit":"s27"}`

	first := submitWait(t, h, body)
	// An upload's result takes the one cache slot; upload bodies are not
	// recorded, so the index still holds the first body's digest.
	if a := submitWait(t, h, fmt.Sprintf(`{"netlist_sha256":%q}`, upload(t, h, c17Bench))); a.st.State != StateDone {
		t.Fatalf("upload job: %d %s", a.code, a.raw)
	}
	rerun := submitWait(t, h, body)
	if rerun.code != http.StatusOK || rerun.st.Cached || bytes.Equal(rerun.result, first.result) {
		t.Fatalf("replay after eviction: %d %s, want a fresh run", rerun.code, rerun.raw)
	}
	if _, bodies := hitCounts(reg); bodies != 0 {
		t.Errorf("body_hits %d after the eviction, want 0", bodies)
	}
	hit := submitWait(t, h, body)
	if !hit.st.Cached || !bytes.Equal(hit.result, rerun.result) {
		t.Fatalf("replay after the rerun: %d %s", hit.code, hit.raw)
	}
	if _, bodies := hitCounts(reg); bodies != 1 {
		t.Errorf("body_hits %d, want 1", bodies)
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("runner ran %d times, want 3", n)
	}
}

// The body is read whole: a valid object followed by padding past
// MaxBodyBytes is refused, where a decoder stopping after the object would
// have admitted it.
func TestBodyOverLimitRefused(t *testing.T) {
	var runs atomic.Int64
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs), MaxBodyBytes: 64})
	h := s.Handler()
	const body = `{"circuit":"s27"}`
	if a := submitWait(t, h, body+strings.Repeat(" ", 64-len(body))); a.code != http.StatusOK {
		t.Fatalf("body at the limit: %d %s", a.code, a.raw)
	}
	a := submitWait(t, h, body+strings.Repeat(" ", 65-len(body)))
	if a.code != http.StatusBadRequest || !strings.Contains(string(a.raw), "too large") {
		t.Errorf("body one byte over the limit: %d %s, want 400 naming the size", a.code, a.raw)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1", n)
	}
}

// Concurrent replays of a few bodies all hit, each with its body's result
// bytes. Run under -race -count=10.
func TestConcurrentBodyReplays(t *testing.T) {
	var runs atomic.Int64
	reg := obs.NewRegistry()
	s, _ := newTestServer(t, Config{Runner: countingRunner(&runs), Obs: reg})
	h := s.Handler()
	bodies := []string{`{"circuit":"s27"}`, `{"circuit":"c17"}`, `{"circuit":"s27","mode":"baseline"}`}
	want := make([]json.RawMessage, len(bodies))
	for i, body := range bodies {
		want[i] = submitWait(t, h, body).result
	}

	const clients, rounds = 8, 30
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(bodies)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(bodies[i])))
				var wire struct {
					Cached bool            `json:"cached"`
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil || rec.Code != http.StatusOK ||
					!wire.Cached || !bytes.Equal(wire.Result, want[i]) {
					t.Errorf("client %d, round %d, body %d: %d %s (%v)", c, r, i, rec.Code, rec.Body, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if cache, body := hitCounts(reg); cache != clients*rounds || body != clients*rounds {
		t.Errorf("cache_hits %d, body_hits %d, want %d each", cache, body, clients*rounds)
	}
	if n := runs.Load(); n != int64(len(bodies)) {
		t.Errorf("runner ran %d times, want %d", n, len(bodies))
	}
}

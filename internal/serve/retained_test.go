package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cmosopt/internal/obs"
)

// padBench appends comment lines to text until it is at least size bytes.
func padBench(text string, size int) string {
	var b strings.Builder
	b.Grow(size + 1024)
	b.WriteString(text)
	line := "# " + strings.Repeat("pad ", 255) + "\n"
	for b.Len() < size {
		b.WriteString(line)
	}
	return b.String()
}

// A terminal job keeps only what the API can still return. One 1 MiB inline
// netlist submitted 100 times (one run, 99 cache hits), plus a failing and a
// canceled job of the same size, must leave the live heap within a few MB of
// where it started: no retained job may hold its request text.
func TestTerminalJobsDropRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real optimizer")
	}
	const blockHz = 123e6 // the canceled job's clock: its runner waits for the cancel
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		if req.FcHz == blockHz {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return DefaultRunner(ctx, req, workers, reg)
	}
	s := New(Config{Runner: runner})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	h := s.Handler()
	send := func(method, target string, body []byte) JobStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("%s %s: %v", method, target, err)
		}
		return st
	}
	body := func(req Request) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	const size = 1 << 20
	padded := padBench(c17Bench, size)
	ok := body(Request{Bench: padded})
	bad := body(Request{Bench: padBench(c17Bench+strings.Repeat("x", size/2)+"\n", size)})
	blocked := body(Request{Bench: padded, FcHz: blockHz})
	// The first run pays for the pipeline's one-time set-up.
	if st := send(http.MethodPost, "/v1/jobs?wait=1", body(Request{Bench: c17Bench})); st.State != StateDone {
		t.Fatalf("warm-up: %+v", st)
	}

	heap := func() uint64 {
		// Twice: the first collection only moves sync.Pool caches aside.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for i := 0; i < 100; i++ {
		if st := send(http.MethodPost, "/v1/jobs?wait=1", ok); st.State != StateDone || st.Cached != (i > 0) {
			t.Fatalf("submission %d: state %s, cached %v", i, st.State, st.Cached)
		}
	}
	if st := send(http.MethodPost, "/v1/jobs?wait=1", bad); st.State != StateFailed {
		t.Fatalf("bad netlist: %+v", st)
	}
	st := send(http.MethodPost, "/v1/jobs", blocked)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked job never started")
	}
	send(http.MethodDelete, "/v1/jobs/"+st.ID, nil)
	if st := send(http.MethodGet, "/v1/jobs/"+st.ID+"?wait=1", nil); st.State != StateCanceled {
		t.Fatalf("canceled job: %+v", st)
	}
	after := heap()
	// The bodies were live at the first reading; keep them for the second.
	runtime.KeepAlive(ok)
	runtime.KeepAlive(bad)
	runtime.KeepAlive(blocked)
	if got := s.stats().Retained; got != 103 {
		t.Fatalf("retained = %d, want 103", got)
	}
	grown := float64(int64(after)-int64(before)) / (1 << 20)
	t.Logf("live heap grew %.2f MB", grown)
	if grown > 4 {
		t.Errorf("live heap grew %.1f MB over 102 retained 1 MiB jobs, want < 4 MB", grown)
	}
}

// stream is what one SSE subscription delivered: the progress entries folded
// by path (a later frame's entry replaces an earlier one), the number of
// progress frames, and the done frame's data.
type stream struct {
	spans  map[string]obs.FlatSpan
	frames int
	done   []byte
}

func subscribe(ctx context.Context, c *Client, id string) (stream, error) {
	st := stream{spans: map[string]obs.FlatSpan{}}
	var bad error
	err := c.Events(ctx, id, func(ev Event) bool {
		switch ev.Name {
		case "progress":
			var delta []obs.FlatSpan
			if bad = json.Unmarshal(ev.Data, &delta); bad != nil {
				return false
			}
			for _, f := range delta {
				st.spans[f.Path] = f
			}
			st.frames++
		case "done":
			st.done = ev.Data
		}
		return true
	})
	if err == nil && bad != nil {
		err = fmt.Errorf("progress frame: %w", bad)
	}
	return st, err
}

// pathsAndCounts drops the durations from a folded stream.
func pathsAndCounts(spans map[string]obs.FlatSpan) map[string]int64 {
	out := make(map[string]int64, len(spans))
	for p, f := range spans {
		out[p] = f.Count
	}
	return out
}

// SSE subscribers racing the terminal transition. Subscribers that start
// while the job runs, and ones that start as it ends, must fold to the
// job's final spans and receive one done frame, byte-equal across
// subscribers and to json.Marshal of the status with the runner's Result. A
// subscriber that starts after the job ended gets the final spans in one
// progress frame. Run under -race -count=10.
func TestEventsRaceTerminalTransition(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	res := &Result{Output: "done\n", Manifest: obs.NewManifest("served")}
	runner := func(ctx context.Context, req *Request, workers int, reg *obs.Registry) (*Result, error) {
		close(started)
		for i := 0; ; i++ {
			reg.Root().StartChild(fmt.Sprintf("phase%d", i%4)).Stop()
			select {
			case <-release:
				reg.Finish()
				return res, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(50 * time.Microsecond):
			}
		}
	}
	s, c := newTestServer(t, Config{Runner: runner, ProgressInterval: time.Millisecond})
	ctx := context.Background()
	sub, err := c.Submit(ctx, &Request{Circuit: "s27"})
	if err != nil {
		t.Fatal(err)
	}

	const early, racing = 4, 4
	streams := make([]stream, early+racing)
	var wg sync.WaitGroup
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := subscribe(ctx, c, sub.ID)
			if err != nil {
				t.Error(err)
			}
			streams[i] = st
		}()
	}
	for i := 0; i < early; i++ {
		start(i)
	}
	<-started
	for i := early; i < early+racing; i++ {
		start(i)
		if i == early+racing/2 {
			close(release)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	j, ok := s.jobByID(sub.ID)
	if !ok {
		t.Fatalf("job %s not addressable", sub.ID)
	}
	final := j.progress()
	want := make(map[string]obs.FlatSpan, len(final))
	for _, f := range final {
		want[f.Path] = f
	}
	if len(want) < 2 {
		t.Fatalf("final spans %v: the runner recorded nothing", final)
	}
	env, _ := j.envelope()
	if env.State != StateDone {
		t.Fatalf("job state %s, want done", env.State)
	}
	env.Result = res
	wantDone, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}

	late, err := subscribe(ctx, c, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if late.frames != 1 {
		t.Errorf("late subscriber: %d progress frames, want the final spans in one", late.frames)
	}
	for i, st := range append(streams, late) {
		if !reflect.DeepEqual(st.spans, want) {
			t.Errorf("stream %d folds to %v, want the final spans %v", i, st.spans, want)
		}
		if !bytes.Equal(st.done, wantDone) {
			t.Errorf("stream %d done frame:\n%s\nwant\n%s", i, st.done, wantDone)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmosopt/internal/obs"
	"cmosopt/internal/serve"
)

// clients is the number of closed-loop clients, and of connections, of the
// serve workloads: callers are CAD scripts that wait for their result, and
// two matches the default executor count and this benchmark's 2-CPU target.
const clients = 2

// Headers that join a request to its server-side spans.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
)

// service is an in-process serve.Server with the default configuration
// behind a loopback listener on a free port.
type service struct {
	srv  *serve.Server
	hs   *httptest.Server
	http *http.Client
	tr   *tracer

	mu      sync.Mutex
	pending map[string]int64 // runner join key → operation
}

// startService starts a server. With a tracer, the handler and the runner
// are wrapped to record serve.handler and serve.run spans.
func startService(tr *tracer) *service {
	s := &service{tr: tr, pending: make(map[string]int64)}
	var cfg serve.Config
	if tr != nil {
		cfg.Runner = s.tracedRunner
	}
	s.srv = serve.New(cfg)
	h := s.srv.Handler()
	if tr != nil {
		h = s.tracedHandler(h)
	}
	s.hs = httptest.NewServer(h)
	s.http = &http.Client{
		// A request still unanswered after this long fails as a transport
		// error, so a hung server cannot hang the benchmark.
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
	return s
}

func (s *service) close() error {
	s.http.CloseIdleConnections()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *service) tracedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, err2 := strconv.Atoi(r.Header.Get(hdrParent))
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		id := s.tr.begin(op, parent, "serve.handler")
		s.tr.setHandlerSpan(op, id)
		next.ServeHTTP(w, r)
		s.tr.end(id)
	})
}

// joinKey identifies a request at the runner, which sees the request but
// not its HTTP headers: inline netlists by content hash, built-ins by name.
func joinKey(r *serve.Request) string {
	src := "name:" + r.Circuit
	if r.Bench != "" {
		src = "sha256:" + serve.HashNetlist(r.Bench)
	}
	return r.Kind + "/" + r.Mode + "/" + src
}

func (s *service) tracedRunner(ctx context.Context, req *serve.Request, workers int, reg *obs.Registry) (*serve.Result, error) {
	s.mu.Lock()
	op, ok := s.pending[joinKey(req)]
	s.mu.Unlock()
	if !ok {
		return serve.DefaultRunner(ctx, req, workers, reg)
	}
	id := s.tr.begin(op, s.tr.handlerSpanOf(op), "serve.run")
	defer s.tr.end(id)
	return serve.DefaultRunner(ctx, req, workers, reg)
}

// reply is the client's view of one SubmitWait round trip.
type reply struct {
	latency   time.Duration
	ran       bool   // the job reached done or failed: the service did the work
	ok        bool   // state done
	errText   string // job error, HTTP error or transport error
	output    string // Result.Output
	result    []byte // the raw result object, for byte comparison
	bodyBytes int
	mismatch  string // set by the workload's output check
}

// submitWait sends r as POST /v1/jobs?wait=1, the request serve.Client's
// SubmitWait makes, and times it until the response body is read. spanName
// names the client span: "serve.request", "serve.prime" during set-up, or
// "" for a request that records no spans.
func (s *service) submitWait(op int64, spanName string, r *serve.Request) reply {
	body, err := json.Marshal(r)
	if err != nil {
		return reply{errText: err.Error()}
	}
	hreq, err := http.NewRequest(http.MethodPost, s.hs.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return reply{errText: err.Error()}
	}
	hreq.Header.Set("Content-Type", "application/json")
	id := -1
	if s.tr != nil && spanName != "" {
		s.mu.Lock()
		s.pending[joinKey(r)] = op
		s.mu.Unlock()
		id = s.tr.begin(op, -1, spanName)
		hreq.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		hreq.Header.Set(hdrParent, strconv.Itoa(id))
	}
	start := time.Now()
	resp, err := s.http.Do(hreq)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	s.tr.end(id)
	if err != nil {
		return reply{errText: "transport: " + err.Error()}
	}
	rp := reply{latency: lat, bodyBytes: len(raw)}
	if resp.StatusCode != http.StatusOK {
		rp.errText = fmt.Sprintf("http %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return rp
	}
	var st struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		rp.errText = "decoding response: " + err.Error()
		return rp
	}
	switch st.State {
	case serve.StateDone:
		var res struct {
			Output string `json:"output"`
		}
		if err := json.Unmarshal(st.Result, &res); err != nil {
			rp.errText = "decoding result: " + err.Error()
			return rp
		}
		rp.ran, rp.ok, rp.output, rp.result = true, true, res.Output, st.Result
	case serve.StateFailed:
		rp.ran, rp.errText = true, "error: "+st.Error
	default:
		rp.errText = "job " + st.State + ": " + st.Error
	}
	return rp
}

// text is the reply's output, or its error text.
func (r reply) text() string {
	if r.ok {
		return r.output
	}
	return r.errText
}

func (s *service) stats() (serve.Stats, error) {
	c := serve.Client{BaseURL: s.hs.URL, HTTP: s.http}
	return c.Stats(context.Background())
}

// sample is one operation of a measured loop, kept small: a serve-hit run
// records over 10⁵ of them. Texts of failures and mismatches are kept
// apart, a few per client.
type sample struct {
	lat                 time.Duration
	idx, bodyBytes      int32
	ran, ok, mismatched bool
}

// maxNotes bounds the failure and mismatch texts a client keeps.
const maxNotes = 5

// note is the text of one failed or mismatched operation.
type note struct {
	mismatch bool
	text     string
}

// closedLoop runs the given number of clients, each sending its next request
// only after the previous one completed, until ops operations have started
// or guard has passed. Request indices are handed out in order, so the set
// of inputs sent is a prefix of the seeded sequence.
func closedLoop(n, ops int, guard time.Duration, send func(idx int) reply) ([]sample, []note, time.Duration) {
	var next atomic.Int64
	perClient := make([][]sample, n)
	notes := make([][]note, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(guard)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx := int(next.Add(1) - 1)
				if idx >= ops {
					return
				}
				r := send(idx)
				perClient[c] = append(perClient[c], sample{
					lat: r.latency, idx: int32(idx), bodyBytes: int32(r.bodyBytes),
					ran: r.ran, ok: r.ok, mismatched: r.mismatch != "",
				})
				switch {
				case len(notes[c]) >= maxNotes:
				case r.mismatch != "":
					notes[c] = append(notes[c], note{true, r.mismatch})
				case !r.ok:
					notes[c] = append(notes[c], note{false, fmt.Sprintf("operation %d: %s", idx, firstLine(r.errText))})
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	var allNotes []note
	for c := range perClient {
		out = append(out, perClient[c]...)
		allNotes = append(allNotes, notes[c]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out, allNotes, elapsed
}

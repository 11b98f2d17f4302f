package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmosopt/internal/circuit"
	"cmosopt/internal/obs"
)

// Config parameterizes a Server. Zero values take the listed defaults.
type Config struct {
	// QueueDepth bounds how many admitted jobs may wait for an executor;
	// a full queue rejects submissions with 429 + Retry-After (admission
	// control — under overload the server degrades by refusing early, not
	// by growing an unbounded backlog). Default 16.
	QueueDepth int
	// Executors is the number of jobs optimized concurrently. Default 2.
	Executors int
	// Workers is the per-job engine worker count (the -workers knob of the
	// tools; results are byte-identical at any value). Default 1.
	Workers int
	// CacheEntries bounds the content-addressed result cache. Default 256.
	CacheEntries int
	// NetlistEntries bounds the uploaded-netlist store. Default 64.
	NetlistEntries int
	// RetainJobs bounds how many terminal jobs stay queryable; older ones
	// are forgotten in submission order. Default 1024.
	RetainJobs int
	// DefaultTimeout caps each job's run when the request carries no
	// timeout_ms of its own. 0 means unbounded.
	DefaultTimeout time.Duration
	// ProgressInterval is the SSE span-snapshot poll period. Default 100ms.
	ProgressInterval time.Duration
	// MaxBodyBytes bounds request and netlist-upload bodies. Default 8 MiB.
	MaxBodyBytes int64
	// Runner executes jobs; nil means DefaultRunner (the real pipeline).
	Runner Runner
	// Obs, when non-nil, receives server-lifetime counters (jobs accepted,
	// cache hits, ...) for the shutdown manifest. Purely observational.
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.Executors == 0 {
		c.Executors = 2
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.NetlistEntries == 0 {
		c.NetlistEntries = 64
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 1024
	}
	if c.ProgressInterval == 0 {
		c.ProgressInterval = 100 * time.Millisecond
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner
	}
}

// Server is the optimization service: admission-controlled job queue,
// executor pool, content-addressed result cache, netlist store, and the
// HTTP API over all of it. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	queue      chan *job

	mu     sync.Mutex
	closed bool
	nextID int64
	jobs   map[string]*job
	order  []string // submission order, for bounded retention

	results  *lru[string, *storedResult]
	netlists *lru[string, string]
	// bodies maps the SHA-256 of each request body admitted with a cache
	// key to that key (see replay). It never holds a body.
	bodies *lru[[sha256.Size]byte, string]

	running  atomic.Int64
	accepted atomic.Int64
	rejected atomic.Int64
	ndone    atomic.Int64
	nfailed  atomic.Int64
	ncancel  atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
}

// New builds a server and starts its executor pool.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
		results:  newLRU[string, *storedResult](cfg.CacheEntries),
		netlists: newLRU[string, string](cfg.NetlistEntries),
		bodies:   newLRU[[sha256.Size]byte, string](cfg.CacheEntries),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops admissions, cancels every queued and running job, waits
// for the executors to drain (bounded by ctx), and marks the leftovers
// canceled. Safe to call once; the HTTP listener is the caller's to close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()

	drained := make(chan struct{})
	go func() { s.wg.Wait(); close(drained) }()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	// Jobs still sitting in the queue never reached an executor.
	for {
		select {
		case j := <-s.queue:
			s.finish(j, StateCanceled, nil, context.Canceled)
		default:
			return err
		}
	}
}

// executor drains the queue until shutdown.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j := <-s.queue:
			s.run(j)
		}
	}
}

// run executes one dequeued job through the configured runner.
func (s *Server) run(j *job) {
	req, reg, ok := j.begin()
	if !ok {
		return // canceled while queued
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	defer j.cancel() // release the deadline timer

	res, err := s.runJob(j.ctx, req, reg)
	switch {
	case err == nil:
		// Cache first, then finish: finish releases the waiters, and a
		// client that resubmits the moment its wait returns must hit. Only
		// this executor can end a running job, so the finish below cannot
		// lose to a cancel and leave a cached result on a canceled job.
		if j.key != "" {
			s.results.put(j.key, res)
		}
		s.finish(j, StateDone, res, nil)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finish(j, StateCanceled, nil, err)
	default:
		s.finish(j, StateFailed, nil, err)
	}
}

// runJob calls the runner and encodes its result once, for every response
// that will carry it. A runner panic becomes the job's error, so one bad job
// cannot take down the server and every other in-flight job with it.
func (s *Server) runJob(ctx context.Context, req *Request, reg *obs.Registry) (res *storedResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: job panicked: %v", p)
		}
	}()
	r, err := s.cfg.Runner(ctx, req, s.cfg.Workers, reg)
	if err != nil || r == nil {
		return nil, err
	}
	return encodeResult(r)
}

// finish is the one place a job reaches a terminal state. When this call
// ends the job, the transition is counted once in the /v1/stats counter and
// once in the registry as serve.<state>, so the two views cannot drift, and
// only then are the job's waiters released, so a client whose wait returns
// reads counters that already include its job. The job's spans are
// flattened first, outside its lock, for the SSE endpoint to stream once
// the registry is gone.
func (s *Server) finish(j *job, state string, res *storedResult, err error) {
	if !j.finish(state, res, err, j.progress()) {
		return
	}
	switch state {
	case StateDone:
		s.ndone.Add(1)
	case StateFailed:
		s.nfailed.Add(1)
	case StateCanceled:
		s.ncancel.Add(1)
	}
	s.obsCount("serve."+state, 1)
	close(j.done)
}

// submit admits one normalized request: cache lookup first, then the
// bounded queue. The error return carries an HTTP status via apiError.
func (s *Server) submit(req *Request) (*job, error) {
	key := ""
	if !req.NoCache {
		key = req.cacheKey()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &apiError{status: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}

	if key != "" {
		if res, ok := s.results.get(key); ok {
			return s.hitLocked(key, res), nil
		}
		s.misses.Add(1)
		s.obsCount("serve.cache_misses", 1)
	}

	j := s.newJobLocked(req, key)
	select {
	case s.queue <- j:
	default:
		s.rejected.Add(1)
		s.obsCount("serve.rejected", 1)
		j.cancel()
		return nil, &apiError{
			status:     http.StatusTooManyRequests,
			msg:        fmt.Sprintf("job queue full (%d waiting)", len(s.queue)),
			retryAfter: 1 + len(s.queue)/s.cfg.Executors,
		}
	}
	s.accepted.Add(1)
	s.obsCount("serve.accepted", 1)
	s.registerLocked(j)
	return j, nil
}

// replay answers a byte-identical resubmission from the result cache without
// decoding it. normalize and cacheKey depend only on the body bytes and the
// server's fixed defaults, so the key recorded for a body's digest is the key
// decoding it again would give. nil sends the body down the decode path: it
// was never recorded, its result has left the cache, or the server is
// shutting down (the decode path answers that with its 503).
func (s *Server) replay(sum [sha256.Size]byte) *job {
	key, ok := s.bodies.get(sum)
	if !ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	res, ok := s.results.get(key)
	if !ok {
		return nil
	}
	s.obsCount("serve.body_hits", 1)
	return s.hitLocked(key, res)
}

// hitLocked registers a job answered from the result cache. A hit never
// runs, so it is created done, with no request or registry, the idle spans,
// and the closed channel and canceled context all hits share: it leaves no
// child context on baseCtx and no deadline timer. A later cancel through
// the API finds a done job and is a no-op.
func (s *Server) hitLocked(key string, res *storedResult) *job {
	s.hits.Add(1)
	s.obsCount("serve.cache_hits", 1)
	j := &job{
		id:     s.newIDLocked(),
		key:    key,
		ctx:    hitCtx,
		cancel: func() {},
		done:   hitDone,
		state:  StateDone,
		cached: true,
		res:    res,
		spans:  idleSpans,
	}
	s.registerLocked(j)
	return j
}

// newJobLocked allocates a queued job with its request, a registry and its
// context chain.
func (s *Server) newJobLocked(req *Request, key string) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
	}
	return &job{
		id:     s.newIDLocked(),
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  StateQueued,
		req:    req,
		reg:    obs.NewRegistry(),
	}
}

// newIDLocked returns the next job id.
func (s *Server) newIDLocked() string {
	s.nextID++
	return "j" + strconv.FormatInt(s.nextID, 10)
}

// registerLocked indexes the job and evicts beyond the retention bound.
// Only terminal jobs may be evicted: a queued or running job must stay
// addressable for cancellation, so eviction scans past live entries.
func (s *Server) registerLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > s.cfg.RetainJobs {
		i := s.oldestTerminalLocked()
		if i < 0 {
			break // every retained job is still live; let the table grow
		}
		delete(s.jobs, s.order[i])
		// Shift the live ids ahead of it up one slot and re-slice past the
		// head: those are at most the queued and running jobs, where
		// closing the gap from the tail would move every retained id.
		copy(s.order[1:i+1], s.order[:i])
		s.order = s.order[1:]
	}
}

// oldestTerminalLocked returns the index in s.order of the oldest terminal
// job, or -1 when every retained job is live.
func (s *Server) oldestTerminalLocked() int {
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
		j.mu.Unlock()
		if terminal {
			return i
		}
	}
	return -1
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// cancelJob cancels a job's context and, for still-queued jobs, resolves the
// terminal state immediately (the executor will skip it on dequeue).
func (s *Server) cancelJob(j *job) {
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		s.finish(j, StateCanceled, nil, context.Canceled)
	}
}

// stats snapshots the server counters.
func (s *Server) stats() Stats {
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	return Stats{
		Accepted:   s.accepted.Load(),
		Rejected:   s.rejected.Load(),
		Done:       s.ndone.Load(),
		Failed:     s.nfailed.Load(),
		Canceled:   s.ncancel.Load(),
		CacheHits:  s.hits.Load(),
		CacheMiss:  s.misses.Load(),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		Running:    s.running.Load(),
		Retained:   retained,
		Netlists:   s.netlists.len(),
	}
}

// obsCount mirrors a lifecycle event into the server-lifetime registry (a
// write; the registry is read only by the shutdown manifest path).
func (s *Server) obsCount(name string, n int64) {
	s.cfg.Obs.Counter(name).Add(n)
}

// apiError is an error with an HTTP status (and optional Retry-After).
type apiError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 = no header
}

func (e *apiError) Error() string { return e.msg }

// --- HTTP surface ---

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/netlists", s.handleNetlistUpload)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hung up; nothing useful to do
}

// encodeResult builds the stored form of a runner's result: the bytes
// writeJSON's indenting encoder writes for res at the "result" position of a
// JobStatus, one level deep, which writeStatus splices in. It only reads res,
// so a runner may hand the same *Result to several jobs.
func encodeResult(res *Result) (*storedResult, error) {
	b, err := json.MarshalIndent(res, "  ", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding result: %w", err)
	}
	return &storedResult{json: b}, nil
}

// writeStatus writes j's status exactly as writeJSON would encode the
// envelope with the job's Result in it, but encodes only the envelope and
// appends the result's stored encoding instead of encoding the Result again.
// The splice relies on the two invariants stated at JobStatus.
func writeStatus(w http.ResponseWriter, status int, j *job) {
	st, res := j.envelope()
	if res == nil {
		writeJSON(w, status, st)
		return
	}
	// An envelope holds only strings and a bool, which always encode.
	env, _ := json.MarshalIndent(st, "", "  ")
	const field = ",\n  \"result\": "
	b := make([]byte, 0, len(env)+len(field)+len(res.json)+len("\n}\n"))
	b = append(b, env[:len(env)-len("\n}")]...)
	b = append(b, field...)
	b = append(b, res.json...)
	b = append(b, "\n}\n"...)
	// A result is a few KB: with its length declared the response goes out
	// whole instead of chunked past net/http's 2 KiB buffer.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // the client hung up; nothing useful to do
}

func writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	if ae.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
	}
	writeJSON(w, ae.status, map[string]string{"error": ae.msg})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleSubmit reads the body whole and answers a byte-identical replay of
// a body admitted before from its digest (replay); any other body is decoded
// and admitted (admit).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		writeError(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	sum := sha256.Sum256(body)
	j := s.replay(sum)
	if j == nil {
		if j, err = s.admit(body, sum); err != nil {
			writeError(w, err)
			return
		}
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gave up on the wait; the job itself keeps running.
		}
		writeStatus(w, http.StatusOK, j)
		return
	}
	status := http.StatusAccepted
	if j.cached {
		status = http.StatusOK
	}
	writeStatus(w, status, j)
}

// admit decodes, normalizes and submits a request body. A body submitted
// with a cache key is then recorded under its digest sum, so its replays skip
// all of this, unless it names an uploaded netlist: its answer depends on the
// netlist store too, and must stay a 404 once the upload is evicted, even
// while its result is cached.
func (s *Server) admit(body []byte, sum [sha256.Size]byte) (*job, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if err := req.normalize(); err != nil {
		return nil, err
	}
	if req.NetlistSHA256 != "" {
		text, ok := s.netlists.get(req.NetlistSHA256)
		if !ok {
			return nil, &apiError{status: http.StatusNotFound,
				msg: fmt.Sprintf("netlist %s not found (upload it to /v1/netlists first)", req.NetlistSHA256)}
		}
		req.benchText = text
	} else if req.Bench != "" {
		req.benchText = req.Bench
	}

	j, err := s.submit(&req)
	if err == nil && j.key != "" && req.NetlistSHA256 == "" {
		s.bodies.put(sum, j.key)
	}
	return j, err
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound, msg: "no such job"})
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
	}
	writeStatus(w, http.StatusOK, j)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound, msg: "no such job"})
		return
	}
	s.cancelJob(j)
	writeStatus(w, http.StatusOK, j)
}

func (s *Server) handleNetlistUpload(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		writeError(w, fmt.Errorf("reading netlist: %w", err))
		return
	}
	text := string(body)
	// Parse now so a bad upload fails loudly here, not inside some later job.
	ct, err := circuit.ParseBenchString("upload", text)
	if err != nil {
		writeError(w, fmt.Errorf("netlist does not parse: %w", err))
		return
	}
	hash := HashNetlist(text)
	s.netlists.put(hash, text)
	writeJSON(w, http.StatusOK, map[string]any{
		"sha256": hash,
		"gates":  ct.NumLogic(),
	})
}

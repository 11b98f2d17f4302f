package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// bodyPresize caps the buffer readBody allocates from a declared length
// before any byte arrives: a client may declare MaxBodyBytes and send 60.
const bodyPresize = 64 << 10

// readBody is the package's body reader, for requests and responses alike.
// It reads r to EOF like io.ReadAll, but sizes its buffer from declared, the
// declared length (ContentLength; -1 when unknown): it starts at declared+1,
// so that the read meeting EOF needs no growth, capped at bodyPresize. Past
// that it doubles, never beyond declared+1 while the body keeps within it, so
// a long body costs about twice its size in buffers, not io.ReadAll's five.
func readBody(r io.Reader, declared int64) ([]byte, error) {
	want := -1 // the capacity an honestly declared body needs
	if declared >= 0 && declared < math.MaxInt {
		want = int(declared) + 1
	}
	n := 512 // io.ReadAll's first buffer
	if want > 0 {
		n = min(want, bodyPresize)
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			c := 2 * cap(b)
			if want > cap(b) {
				c = min(c, want)
			}
			b = append(make([]byte, 0, c), b...)
		}
	}
}

// Client is a typed view of the server's HTTP API, shared by cmd/loadgen
// and the end-to-end tests so neither hand-rolls requests.
type Client struct {
	BaseURL string
	HTTP    *http.Client // nil means http.DefaultClient
}

// QueueFullError reports an admission-control rejection (HTTP 429) with the
// server's suggested backoff.
type QueueFullError struct {
	RetryAfter int // seconds
	Msg        string
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("queue full (retry after %ds): %s", e.RetryAfter, e.Msg)
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do runs one JSON round trip and decodes the response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("serve client: marshal: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return fmt.Errorf("serve client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %w", err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return fmt.Errorf("serve client: reading response: %w", err)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		retry, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return &QueueFullError{RetryAfter: retry, Msg: apiMessage(raw)}
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("serve client: %s %s: %s: %s", method, path, resp.Status, apiMessage(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("serve client: decoding %s: %w", path, err)
		}
	}
	return nil
}

// apiMessage extracts the error field from an API error body, falling back
// to the raw bytes.
func apiMessage(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// Submit enqueues a job and returns its accepted (or cache-hit) status.
func (c *Client) Submit(ctx context.Context, req *Request) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// SubmitWait enqueues a job and blocks until it reaches a terminal state.
func (c *Client) SubmitWait(ctx context.Context, req *Request) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs?wait=1", req, &st)
	return st, err
}

// SubmitWaitRaw is SubmitWait that also returns the result object's JSON
// exactly as the server sent it, so a caller can compare two results byte
// for byte.
func (c *Client) SubmitWaitRaw(ctx context.Context, req *Request) (JobStatus, json.RawMessage, error) {
	var body json.RawMessage
	if err := c.do(ctx, http.MethodPost, "/v1/jobs?wait=1", req, &body); err != nil {
		return JobStatus{}, nil, err
	}
	var st JobStatus
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, nil, fmt.Errorf("serve client: decoding /v1/jobs: %w", err)
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		return st, nil, fmt.Errorf("serve client: decoding /v1/jobs: %w", err)
	}
	return st, raw.Result, nil
}

// Wait blocks until the job is terminal and returns its final status.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=1", nil, &st)
	return st, err
}

// Cancel requests cancellation and returns the status as of the request.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Healthy reports whether the server answers its health check.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Event is one server-sent progress frame.
type Event struct {
	Name string // "progress" or "done"
	Data []byte // single-line JSON payload
}

// Events subscribes to a job's SSE stream and invokes fn for every event
// until the stream closes (after "done") or ctx ends. fn returning false
// stops the subscription early.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return fmt.Errorf("serve client: %w", err)
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := readBody(resp.Body, resp.ContentLength)
		return fmt.Errorf("serve client: events: %s: %s", resp.Status, apiMessage(raw))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var ev Event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if ev.Name != "" {
				if !fn(ev) {
					return nil
				}
				if ev.Name == "done" {
					return nil
				}
			}
			ev = Event{}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("serve client: event stream: %w", err)
	}
	return nil
}

// Package serve is the optimization-as-a-service front door: a long-running
// HTTP server that exposes the whole pipeline — netlist + constraints in,
// optimized Vdd/Vt/widths and a cmosopt/manifest/v2 manifest out — over a
// bounded job queue with admission control, per-job cancellation and
// deadlines, server-sent progress events mapped from the obs span tree, and
// a content-addressed result cache that makes identical requests free.
//
// The package is deliberately a thin shell: every number it returns is
// produced by the same internal/core + internal/eval path the command-line
// tools use, with the same byte-identical-at-any-worker-count guarantee, so
// a served response can be diffed against an offline cmd/sweep run (the
// serve-e2e CI job does exactly that).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cmosopt/internal/cli"
	"cmosopt/internal/obs"
)

// Request is one optimization job. Exactly one netlist source must be set:
// a built-in benchmark name (Circuit), an inline ISCAS .bench netlist
// (Bench), or the content address of a previously uploaded netlist
// (NetlistSHA256). The zero value of every constraint means "the default" —
// defaults are filled before the cache key is computed, so spelling a
// default out and omitting it address the same cache entry.
type Request struct {
	// Kind selects the request family: "optimize" (default; one circuit,
	// one clock target, one optimizer mode — the cmd/lowpower pipeline) or
	// "sweep" (log-spaced clock sweep with EDP reporting — the cmd/sweep
	// pipeline).
	Kind string `json:"kind,omitempty"`

	Circuit       string `json:"circuit,omitempty"`
	Bench         string `json:"bench,omitempty"`
	NetlistSHA256 string `json:"netlist_sha256,omitempty"`

	// Optimize-family constraints (cmd/lowpower parity).
	Mode      string  `json:"mode,omitempty"`       // a cmd/lowpower -mode (default joint)
	NV        int     `json:"nv,omitempty"`         // thresholds for multivt
	FcHz      float64 `json:"fc_hz,omitempty"`      // required clock (default 300 MHz)
	Skew      float64 `json:"skew,omitempty"`       // derating b (default 0.95)
	InputProb float64 `json:"input_prob,omitempty"` // default 0.5
	Activity  float64 `json:"activity,omitempty"`   // default 0.5
	M         int     `json:"m,omitempty"`          // bisection steps (default 12)

	// Sweep-family constraints (cmd/sweep parity; Circuit source only).
	FromHz float64 `json:"from_hz,omitempty"`
	ToHz   float64 `json:"to_hz,omitempty"`
	Points int     `json:"points,omitempty"`
	Format string  `json:"format,omitempty"` // text|csv

	// Tech holds device-parameter overrides in the -tech file syntax
	// (key=value lines); empty means the default 0.35 µm technology. Part
	// of the cache key: different device params are different results.
	Tech string `json:"tech,omitempty"`

	// Execution controls — never part of the cache key.
	TimeoutMS int  `json:"timeout_ms,omitempty"` // per-job deadline (0 = server default)
	NoCache   bool `json:"nocache,omitempty"`    // bypass the result cache entirely

	// benchText is the resolved netlist text (inline Bench or an uploaded
	// blob), filled at admission; unexported so it never round-trips.
	benchText string
}

// Request kinds.
const (
	KindOptimize = "optimize"
	KindSweep    = "sweep"
)

// normalize fills defaults in place and rejects invalid requests. It must
// be canonicalizing: two requests that mean the same job end up field-for-
// field equal, so their cache keys collide by construction.
func (r *Request) normalize() error {
	if r.Kind == "" {
		r.Kind = KindOptimize
	}
	sources := 0
	for _, s := range []string{r.Circuit, r.Bench, r.NetlistSHA256} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of circuit, bench, netlist_sha256 required (got %d)", sources)
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms %d negative", r.TimeoutMS)
	}
	switch r.Kind {
	case KindOptimize:
		if r.Mode == "" {
			r.Mode = "joint"
		}
		if _, ok := cli.Optimizer(r.Mode); !ok {
			return fmt.Errorf("unknown mode %q", r.Mode)
		}
		if r.Mode == "multivt" && r.NV == 0 {
			r.NV = 2
		}
		if r.Mode != "multivt" && r.NV != 0 {
			return fmt.Errorf("nv is a multivt option")
		}
		if r.FcHz == 0 {
			r.FcHz = 300e6
		}
		if r.FcHz <= 0 {
			return fmt.Errorf("fc_hz %v must be positive", r.FcHz)
		}
		if r.M == 0 {
			r.M = 12
		}
		if r.M < 1 || r.M > 64 {
			return fmt.Errorf("m = %d outside [1,64]", r.M)
		}
		if r.FromHz != 0 || r.ToHz != 0 || r.Points != 0 || r.Format != "" {
			return fmt.Errorf("from_hz/to_hz/points/format are sweep options")
		}
	case KindSweep:
		if r.Circuit == "" {
			return fmt.Errorf("sweep requests take a built-in circuit name")
		}
		if r.Mode != "" || r.NV != 0 || r.FcHz != 0 || r.M != 0 {
			return fmt.Errorf("mode/nv/fc_hz/m are optimize options")
		}
		if r.FromHz == 0 {
			r.FromHz = 50e6
		}
		if r.ToHz == 0 {
			r.ToHz = 600e6
		}
		if r.Points == 0 {
			r.Points = 8
		}
		if r.FromHz <= 0 || r.ToHz <= r.FromHz || r.Points < 2 || r.Points > 256 {
			return fmt.Errorf("bad sweep range [%v, %v] x %d", r.FromHz, r.ToHz, r.Points)
		}
		switch r.Format {
		case "":
			r.Format = "text"
		case "text", "csv":
		default:
			return fmt.Errorf("unknown format %q", r.Format)
		}
	default:
		return fmt.Errorf("unknown kind %q", r.Kind)
	}
	if r.Skew == 0 {
		r.Skew = 0.95
	}
	if r.Skew <= 0 || r.Skew > 1 {
		return fmt.Errorf("skew %v outside (0,1]", r.Skew)
	}
	if r.InputProb == 0 {
		r.InputProb = 0.5
	}
	if r.Activity == 0 {
		r.Activity = 0.5
	}
	if r.InputProb < 0 || r.InputProb > 1 || r.Activity < 0 || r.Activity > 1 {
		return fmt.Errorf("input_prob/activity outside [0,1]")
	}
	// Parse the overrides now, so a bad one is refused at admission instead
	// of failing later as a queued job.
	if _, err := requestTech(r); err != nil {
		return err
	}
	return nil
}

// keySchema versions the cache key layout; bump it whenever the key fields
// or the meaning of a result change, so stale cache hits are impossible
// across deployments.
const keySchema = "cmosopt/key/v1"

// keyForm is the canonical, content-addressed identity of a request:
// (netlist hash, constraints, device params). Execution controls
// (timeout_ms, nocache) are deliberately absent.
type keyForm struct {
	Schema    string  `json:"schema"`
	Kind      string  `json:"kind"`
	Netlist   string  `json:"netlist"` // "name:<builtin>" or "sha256:<hex>"
	Mode      string  `json:"mode,omitempty"`
	NV        int     `json:"nv,omitempty"`
	FcHz      float64 `json:"fc_hz,omitempty"`
	Skew      float64 `json:"skew"`
	InputProb float64 `json:"input_prob"`
	Activity  float64 `json:"activity"`
	M         int     `json:"m,omitempty"`
	FromHz    float64 `json:"from_hz,omitempty"`
	ToHz      float64 `json:"to_hz,omitempty"`
	Points    int     `json:"points,omitempty"`
	Format    string  `json:"format,omitempty"`
	Tech      string  `json:"tech,omitempty"`
}

// HashNetlist returns the content address of a netlist text.
func HashNetlist(bench string) string {
	sum := sha256.Sum256([]byte(bench))
	return hex.EncodeToString(sum[:])
}

// cacheKey derives the content address of a normalized request. The
// netlist component is the benchmark name for built-ins (their generators
// are deterministic, so the name IS the content) and the SHA-256 of the
// netlist text for uploads.
func (r *Request) cacheKey() string {
	netlist := "name:" + r.Circuit
	if r.Circuit == "" {
		h := r.NetlistSHA256
		if h == "" {
			h = HashNetlist(r.Bench)
		}
		netlist = "sha256:" + h
	}
	k := keyForm{
		Schema: keySchema, Kind: r.Kind, Netlist: netlist,
		Mode: r.Mode, NV: r.NV, FcHz: r.FcHz, Skew: r.Skew,
		InputProb: r.InputProb, Activity: r.Activity, M: r.M,
		FromHz: r.FromHz, ToHz: r.ToHz, Points: r.Points, Format: r.Format,
		Tech: r.Tech,
	}
	b, err := json.Marshal(k)
	if err != nil {
		// keyForm is marshal-safe by construction.
		panic(fmt.Sprintf("serve: cache key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Result is the payload of a completed job: the rendered tool output
// (byte-identical to the offline command for the same request) plus the
// run manifest.
type Result struct {
	Output   string        `json:"output"`
	Manifest *obs.Manifest `json:"manifest,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire form of one job's lifecycle position.
//
// A status response encodes a done job's Result only once, when the job
// succeeds (writeStatus appends the stored bytes to the encoded envelope).
// That is exact because of two invariants, held by
// TestWriteStatusMatchesEncoder: Result is the last field, and ID and State
// are never empty, so the envelope always has a field before the Result.
type JobStatus struct {
	ID     string  `json:"id"`
	State  string  `json:"state"`
	Key    string  `json:"key,omitempty"`    // content address ("" when nocache)
	Cached bool    `json:"cached,omitempty"` // answered from the result cache
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"` // set in state "done"
}

// Stats is the /v1/stats payload: queue, cache and lifecycle counters.
type Stats struct {
	Accepted   int64 `json:"accepted"`
	Rejected   int64 `json:"rejected"` // 429s from admission control
	Done       int64 `json:"done"`
	Failed     int64 `json:"failed"`
	Canceled   int64 `json:"canceled"`
	CacheHits  int64 `json:"cache_hits"`
	CacheMiss  int64 `json:"cache_misses"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Running    int64 `json:"running"`
	Retained   int   `json:"jobs_retained"`
	Netlists   int   `json:"netlists"`
}

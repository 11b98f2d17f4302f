// Command loadgen drives a running served instance, in two modes.
//
// Smoke mode (-smoke) is the correctness end-to-end the serve-e2e CI job
// runs: it submits a sweep and asserts the served bytes are identical to
// the offline cmd/sweep rendering computed in-process, replays the request
// to prove a cache hit returns the same bytes, streams a job's SSE events
// live and again after it ended (the late stream must carry the final spans
// in one frame and the same done frame), cancels a mid-flight
// 100k-gate job and checks it resolves promptly as canceled, fills the
// admission queue until the server answers 429 + Retry-After, drains it,
// and verifies the server accepts work again.
//
// Load mode (default) measures the serving pipeline: -n requests at -c
// concurrency, once uncached (every request runs the real optimizer) and
// once against the result cache, reporting p50/p99 latency and sustained
// ns/request. With -o the measurements land in a cmosopt/manifest/v2
// manifest as Loadgen/* benchmark records, the same currency the CI
// bench-regress gate compares with cmd/benchdiff.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -smoke
//	loadgen -addr http://127.0.0.1:8080 [-n 32] [-c 4] [-circuit s27] [-o load.json]
//
// All wall-clock measurement lives here, outside the deterministic core:
// the server and engine never read the clock for anything they return.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"strings"
	"sync"
	"time"

	"cmosopt/internal/cli"
	"cmosopt/internal/device"
	"cmosopt/internal/obs"
	"cmosopt/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

type config struct {
	client  *serve.Client
	smoke   bool
	n       int
	c       int
	circuit string
	heavy   string
	points  int
	out     string
	warmup  time.Duration
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "served base URL")
	smoke := fs.Bool("smoke", false, "run the end-to-end correctness suite instead of a load run")
	n := fs.Int("n", 32, "requests per load batch")
	c := fs.Int("c", 4, "concurrent requests")
	circuitName := fs.String("circuit", "s27", "benchmark circuit for load requests")
	heavy := fs.String("heavy", "s100k", "long-running circuit for cancellation and queue-fill probes")
	points := fs.Int("points", 3, "sweep points per load request")
	o := fs.String("o", "", "write measurements as a manifest JSON here")
	warmup := fs.Duration("warmup", 30*time.Second, "how long to wait for the server to become healthy")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr
	}
	cfg := config{
		client:  &serve.Client{BaseURL: *addr},
		smoke:   *smoke,
		n:       *n,
		c:       *c,
		circuit: *circuitName,
		heavy:   *heavy,
		points:  *points,
		out:     *o,
		warmup:  *warmup,
	}
	if err := waitHealthy(cfg.client, cfg.warmup); err != nil {
		return err
	}
	if cfg.smoke {
		return runSmoke(cfg, out)
	}
	return runLoad(cfg, out)
}

// waitHealthy polls /healthz until the server answers; the launcher (CI or
// a human) starts served and loadgen concurrently.
func waitHealthy(c *serve.Client, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ok := c.Healthy(ctx)
		cancel()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %s", c.BaseURL, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// sweepRequest is the canonical small request both modes submit.
func sweepRequest(circuit string, points int, nocache bool) *serve.Request {
	return &serve.Request{
		Kind: serve.KindSweep, Circuit: circuit,
		FromHz: 100e6, ToHz: 400e6, Points: points, Format: "csv",
		NoCache: nocache,
	}
}

// offlineSweep renders the same request through the exact cli path
// cmd/sweep uses — the reference the served bytes must match.
func offlineSweep(circuit string, points int) (string, error) {
	params := cli.SweepParams{
		Circuit: circuit, FromHz: 100e6, ToHz: 400e6,
		Points: points, Activity: 0.5, Workers: 1,
	}
	ct, pts, best, err := cli.RunSweep(params, device.Default350(), obs.NewRegistry(), context.Background())
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := cli.RenderSweep(&buf, "csv", cli.SweepTable(ct.Name, 0.5, pts, best)); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// --- smoke mode ---

func runSmoke(cfg config, out io.Writer) error {
	ctx := context.Background()
	c := cfg.client

	// 1. Served bytes must be identical to the offline tool's rendering.
	offline, err := offlineSweep(cfg.circuit, cfg.points)
	if err != nil {
		return fmt.Errorf("offline reference: %w", err)
	}
	st, first, err := c.SubmitWaitRaw(ctx, sweepRequest(cfg.circuit, cfg.points, false))
	if err != nil {
		return fmt.Errorf("served sweep: %w", err)
	}
	if st.State != serve.StateDone || st.Result == nil {
		return fmt.Errorf("served sweep ended %s: %s", st.State, st.Error)
	}
	if st.Result.Output != offline {
		return fmt.Errorf("served output diverges from offline cmd/sweep:\n-- served --\n%s-- offline --\n%s",
			st.Result.Output, offline)
	}
	if st.Result.Manifest == nil || st.Result.Manifest.Schema != obs.SchemaVersion {
		return fmt.Errorf("served result carries no %s manifest", obs.SchemaVersion)
	}
	fmt.Fprintf(out, "ok  byte-identical  served %s sweep == offline render (%d bytes)\n",
		cfg.circuit, len(offline))

	// 2. The identical request must be a cache hit whose whole result, the
	// manifest included, has the first response's bytes.
	hit, replay, err := c.SubmitWaitRaw(ctx, sweepRequest(cfg.circuit, cfg.points, false))
	if err != nil {
		return fmt.Errorf("cache replay: %w", err)
	}
	if !hit.Cached || !bytes.Equal(replay, first) {
		return fmt.Errorf("cache replay missed or diverged (cached=%v)", hit.Cached)
	}
	fmt.Fprintf(out, "ok  cache-hit       identical request served from cache, result bytes unchanged (%d bytes)\n", len(replay))

	// 3. SSE: a job's event stream must deliver progress and a done frame.
	if err := smokeEvents(ctx, cfg, out); err != nil {
		return err
	}

	// 4. A mid-flight heavy job must cancel promptly.
	if err := smokeCancel(ctx, cfg, out); err != nil {
		return err
	}

	// 5. Admission control: fill the queue to a 429, drain, accept again.
	if err := smokeQueueFull(ctx, cfg, out); err != nil {
		return err
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	if stats.Rejected < 1 || stats.CacheHits < 1 || stats.Canceled < 1 {
		return fmt.Errorf("stats did not record the suite: %+v", stats)
	}
	fmt.Fprintf(out, "ok  stats           accepted=%d rejected=%d done=%d canceled=%d hits=%d\n",
		stats.Accepted, stats.Rejected, stats.Done, stats.Canceled, stats.CacheHits)
	fmt.Fprintln(out, "smoke ok")
	return nil
}

func smokeEvents(ctx context.Context, cfg config, out io.Writer) error {
	sub, err := cfg.client.Submit(ctx, sweepRequest(cfg.circuit, cfg.points, true))
	if err != nil {
		return fmt.Errorf("events submit: %w", err)
	}
	live, err := subscribe(ctx, cfg.client, sub.ID)
	if err != nil {
		return err
	}
	if len(live.done) != 1 || live.progress < 1 {
		return fmt.Errorf("event stream delivered %d progress / %d done frames", live.progress, len(live.done))
	}
	fmt.Fprintf(out, "ok  sse             %d progress frame(s) and a done frame streamed\n", live.progress)

	// A subscriber arriving after the job ended gets its final spans in one
	// progress frame, and the live stream's done frame.
	late, err := subscribe(ctx, cfg.client, sub.ID)
	if err != nil {
		return err
	}
	if late.progress != 1 || len(late.done) != 1 {
		return fmt.Errorf("late event stream delivered %d progress / %d done frames, want 1 / 1", late.progress, len(late.done))
	}
	if !maps.Equal(late.counts, live.counts) {
		return fmt.Errorf("late event stream's spans %v differ from the live stream's final %v", late.counts, live.counts)
	}
	if !bytes.Equal(late.done[0], live.done[0]) {
		return fmt.Errorf("late done frame differs from the live one:\n%s\n%s", late.done[0], live.done[0])
	}
	fmt.Fprintf(out, "ok  sse-late        late subscriber got the final %d span(s) in one frame and the same done frame\n", len(late.counts))
	return nil
}

// events is what one SSE subscription delivered: the span counts by path
// (a later progress frame's entry replaces an earlier one), the number of
// progress frames, and the data of every done frame.
type events struct {
	counts   map[string]int64
	progress int
	done     [][]byte
}

func subscribe(ctx context.Context, c *serve.Client, id string) (events, error) {
	ev := events{counts: map[string]int64{}}
	var bad error
	err := c.Events(ctx, id, func(e serve.Event) bool {
		switch e.Name {
		case "progress":
			var delta []obs.FlatSpan
			if bad = json.Unmarshal(e.Data, &delta); bad != nil {
				return false
			}
			for _, f := range delta {
				ev.counts[f.Path] = f.Count
			}
			ev.progress++
		case "done":
			ev.done = append(ev.done, e.Data)
		}
		return true
	})
	if err == nil && bad != nil {
		err = fmt.Errorf("progress frame: %w", bad)
	}
	if err != nil {
		return ev, fmt.Errorf("event stream: %w", err)
	}
	return ev, nil
}

func smokeCancel(ctx context.Context, cfg config, out io.Writer) error {
	req := &serve.Request{Kind: serve.KindSweep, Circuit: cfg.heavy, Points: 8, NoCache: true}
	sub, err := cfg.client.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("heavy submit: %w", err)
	}
	if _, err := cfg.client.Cancel(ctx, sub.ID); err != nil {
		return fmt.Errorf("cancel: %w", err)
	}
	begin := time.Now()
	fin, err := cfg.client.Wait(ctx, sub.ID)
	if err != nil {
		return fmt.Errorf("wait after cancel: %w", err)
	}
	if fin.State != serve.StateCanceled {
		return fmt.Errorf("canceled %s job resolved as %q, want canceled", cfg.heavy, fin.State)
	}
	fmt.Fprintf(out, "ok  cancellation    %s job aborted %.1fs after cancel reached the server\n",
		cfg.heavy, time.Since(begin).Seconds())
	return nil
}

func smokeQueueFull(ctx context.Context, cfg config, out io.Writer) error {
	heavy := func() *serve.Request {
		return &serve.Request{Kind: serve.KindSweep, Circuit: cfg.heavy, Points: 8, NoCache: true}
	}
	var accepted []string
	var rejected *serve.QueueFullError
	for i := 0; i < 64; i++ {
		st, err := cfg.client.Submit(ctx, heavy())
		if err == nil {
			accepted = append(accepted, st.ID)
			continue
		}
		if errors.As(err, &rejected) {
			break
		}
		return fmt.Errorf("queue-fill submit: %w", err)
	}
	if rejected == nil {
		return fmt.Errorf("queue never filled after %d heavy submissions", len(accepted))
	}
	if rejected.RetryAfter < 1 {
		return fmt.Errorf("429 without a usable Retry-After: %v", rejected)
	}
	fmt.Fprintf(out, "ok  admission       429 after %d in flight, Retry-After %ds\n",
		len(accepted), rejected.RetryAfter)

	// Drain: cancel everything we parked and wait for the terminal states.
	for _, id := range accepted {
		if _, err := cfg.client.Cancel(ctx, id); err != nil {
			return fmt.Errorf("drain cancel %s: %w", id, err)
		}
	}
	for _, id := range accepted {
		if _, err := cfg.client.Wait(ctx, id); err != nil {
			return fmt.Errorf("drain wait %s: %w", id, err)
		}
	}
	// The drained server accepts and completes work again.
	again, err := cfg.client.SubmitWait(ctx, sweepRequest(cfg.circuit, cfg.points, false))
	if err != nil {
		return fmt.Errorf("post-drain submit: %w", err)
	}
	if again.State != serve.StateDone {
		return fmt.Errorf("post-drain job ended %s", again.State)
	}
	fmt.Fprintf(out, "ok  drain           queue drained, server accepting again\n")
	return nil
}

// --- load mode ---

// batch fires n requests at concurrency c and returns each request's
// latency plus the batch wall time.
func batch(ctx context.Context, c *serve.Client, n, conc int, mk func(int) *serve.Request) ([]time.Duration, time.Duration, error) {
	lat := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	begin := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			st, err := c.SubmitWait(ctx, mk(i))
			lat[i] = time.Since(t0)
			if err != nil {
				errs[i] = err
			} else if st.State != serve.StateDone {
				errs[i] = fmt.Errorf("request %d ended %s: %s", i, st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(begin)
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return lat, wall, nil
}

func runLoad(cfg config, out io.Writer) error {
	ctx := context.Background()
	man := obs.NewManifest("loadgen")
	man.Circuit = cfg.circuit
	man.Workers = cfg.c

	report := func(label string, lat []time.Duration, wall time.Duration) error {
		s, err := serve.Summarize(lat)
		if err != nil {
			return err
		}
		perReq := wall / time.Duration(s.N)
		fmt.Fprintf(out, "%-8s n=%d c=%d  p50 %s  p99 %s  max %s  %s/req sustained\n",
			label, s.N, cfg.c, s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond),
			s.Max.Round(time.Microsecond), perReq.Round(time.Microsecond))
		man.Benchmarks = append(man.Benchmarks,
			obs.BenchRecord{Name: "Loadgen/" + label + "/p50", Runs: s.N, Samples: s.N, NsPerOp: float64(s.P50.Nanoseconds())},
			obs.BenchRecord{Name: "Loadgen/" + label + "/p99", Runs: s.N, Samples: s.N, NsPerOp: float64(s.P99.Nanoseconds())},
			obs.BenchRecord{Name: "Loadgen/" + label + "/ns_per_req", Runs: s.N, Samples: s.N, NsPerOp: float64(perReq.Nanoseconds())},
		)
		return nil
	}

	// Uncached: every request runs the full optimizer pipeline.
	lat, wall, err := batch(ctx, cfg.client, cfg.n, cfg.c, func(int) *serve.Request {
		return sweepRequest(cfg.circuit, cfg.points, true)
	})
	if err != nil {
		return fmt.Errorf("uncached batch: %w", err)
	}
	if err := report("sweep", lat, wall); err != nil {
		return err
	}

	// Cached: prime once, then measure pure front-door + cache latency.
	if _, err := cfg.client.SubmitWait(ctx, sweepRequest(cfg.circuit, cfg.points, false)); err != nil {
		return fmt.Errorf("cache prime: %w", err)
	}
	lat, wall, err = batch(ctx, cfg.client, cfg.n, cfg.c, func(int) *serve.Request {
		return sweepRequest(cfg.circuit, cfg.points, false)
	})
	if err != nil {
		return fmt.Errorf("cached batch: %w", err)
	}
	if err := report("cached", lat, wall); err != nil {
		return err
	}

	if cfg.out != "" {
		if err := man.WriteFile(cfg.out); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d benchmark records)\n", cfg.out, len(man.Benchmarks))
	}
	return nil
}

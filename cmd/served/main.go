// Command served is the optimization-as-a-service front door: a long-running
// HTTP server exposing the whole pipeline — netlist + constraints in,
// optimized Vdd/Vt/widths and a cmosopt/manifest/v3 manifest out. Jobs flow
// through a bounded queue with admission control (429 + Retry-After under
// overload), carry per-job contexts whose cancellation and deadlines
// propagate into the optimizer loops, stream progress as server-sent events
// mapped from the obs span tree, and land in a content-addressed result
// cache keyed by (netlist hash, constraints, device params).
//
// Every number the server returns is produced by the same internal/core
// pipeline the offline tools use; for identical requests the response body
// is byte-identical to the offline tool's stdout (the serve-e2e CI job
// asserts this with cmd/loadgen -smoke).
//
// Usage:
//
//	served [-addr 127.0.0.1:8080] [-addrfile path] [-queue 16] [-executors 2]
//	       [-workers 1] [-cache 256] [-retain 1024] [-deadline 0]
//	       [-metrics out.json] [-pprof localhost:6060]
//
// -addr 127.0.0.1:0 picks a free port; -addrfile writes the bound address
// for the launcher (how the CI job finds its randomly-ported server).
// SIGINT/SIGTERM drains gracefully: admissions stop, in-flight jobs are
// canceled, and the server exits 0.
//
// API:
//
//	GET    /healthz              liveness
//	GET    /v1/stats             queue/cache/lifecycle counters
//	POST   /v1/jobs              submit (JSON serve.Request; ?wait=1 blocks)
//	GET    /v1/jobs/{id}         status (?wait=1 blocks until terminal)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	POST   /v1/netlists          upload a .bench netlist, returns its sha256
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cmosopt/internal/cli"
	"cmosopt/internal/obs"
	"cmosopt/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("served: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening")
	queue := fs.Int("queue", 16, "admission-control queue depth (full queue answers 429)")
	executors := fs.Int("executors", 2, "jobs optimized concurrently")
	workers := fs.Int("workers", 1, "engine workers per job (results are byte-identical at any value)")
	cache := fs.Int("cache", 256, "content-addressed result cache entries")
	netlists := fs.Int("netlists", 64, "uploaded-netlist store entries")
	retain := fs.Int("retain", 1024, "terminal jobs kept queryable")
	deadline := fs.Duration("deadline", 0, "default per-job deadline (0 = unbounded; requests may set their own)")
	grace := fs.Duration("grace", 30*time.Second, "shutdown drain budget")
	var obsf cli.ObsFlags
	obsf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The server-lifetime registry records admission/cache counters only.
	// Deliberately NOT installed as the process default: each job runs with
	// its own registry (concurrent jobs must not mix their span trees).
	var reg *obs.Registry
	if obsf.MetricsPath != "" || obsf.PprofAddr != "" {
		reg = obs.NewRegistry()
		if obsf.PprofAddr != "" {
			dbg, err := obs.ServeDebug(obsf.PprofAddr)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "pprof      serving /debug/pprof and /debug/vars on http://%s\n", dbg)
		}
	}

	srv := serve.New(serve.Config{
		QueueDepth:     *queue,
		Executors:      *executors,
		Workers:        *workers,
		CacheEntries:   *cache,
		NetlistEntries: *netlists,
		RetainJobs:     *retain,
		DefaultTimeout: *deadline,
		Obs:            reg,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := l.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addrfile: %w", err)
		}
	}
	fmt.Fprintf(out, "listening  http://%s (queue %d, executors %d, workers %d)\n",
		bound, *queue, *executors, *workers)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	case got := <-sig:
		fmt.Fprintf(out, "signal     %s: draining\n", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if reg != nil {
		man := obs.NewManifest("served")
		if err := obsf.End(man, reg); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "drained    all jobs resolved, exiting")
	return nil
}

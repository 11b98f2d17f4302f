package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"cmosopt/internal/cli"
	"cmosopt/internal/device"
	"cmosopt/internal/experiments"
)

// TestWorkersNeverBlock runs every production fan-out on two CPUs at two
// workers (the table suite, the Figure 2 studies, the EDP sweep and
// multi-V_t's threshold scan) and four uncached jobs on a two-executor
// server. Forks and concurrent jobs share no mutable state (DESIGN.md §5),
// so none may wait on another: a lock or a semaphore on the evaluation path
// would serialize them without changing a byte. The test fails on any
// block-profile event whose blocking call this module's code made, on the
// stack of a parallel.For worker body or of Server.runJob. The runtime's and
// the standard library's own waits (the GC starting its workers, a
// sync.Once, encoding/json's type cache) do not count. No registry is
// attached and served jobs run on one worker, because the forks of one run
// share its span node.
func TestWorkersNeverBlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)

	cfg := experiments.Default()
	cfg.Opts.Workers = 2
	drivers := []struct {
		name string
		run  func() error
	}{
		{"suite", func() error { _, err := experiments.RunSuite(cfg); return err }},
		{"variation", func() error {
			_, err := experiments.Figure2a(cfg, "s298", 0.5, []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30})
			return err
		}},
		{"slack", func() error {
			_, err := experiments.Figure2b(cfg, "s298", 0.5, []float64{0.55, 0.65, 0.75, 0.85, 0.95, 1.0})
			return err
		}},
		{"edp", func() error {
			_, _, _, err := cli.RunSweep(cli.SweepParams{Circuit: "s298", Workers: 2}, device.Default350(), nil, nil)
			return err
		}},
		{"multivt", func() error { _, err := experiments.MultiVtStudy(cfg, "s298", 0.5, []int{2}); return err }},
		{"served", func() error { return serveUncached(4) }},
	}
	for _, d := range drivers {
		before := blockProfile()
		if err := d.run(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if n, stack := workerWaits(before); n > 0 {
			t.Errorf("%s: %d blocking events in workers or executors, e.g. %s", d.name, n, stack)
		}
	}
}

// serveUncached runs n uncached s298 joint jobs on a two-executor server at
// its default one worker per job, and waits up to a minute for all of them.
func serveUncached(n int) error {
	s := New(Config{Executors: 2})
	defer func() { _ = s.Shutdown(context.Background()) }()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	jobs := make([]*job, n)
	for i := range jobs {
		req := &Request{Circuit: "s298", NoCache: true}
		if err := req.normalize(); err != nil {
			return err
		}
		var err error
		if jobs[i], err = s.submit(req); err != nil {
			return err
		}
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return fmt.Errorf("job %s: %w", j.id, ctx.Err())
		}
		if st, _ := j.envelope(); st.State != StateDone {
			return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	return nil
}

// blockProfile returns the block profile's cumulative event count per stack.
func blockProfile() map[[32]uintptr]int64 {
	n, _ := runtime.BlockProfile(nil)
	for {
		recs := make([]runtime.BlockProfileRecord, n+16)
		var ok bool
		if n, ok = runtime.BlockProfile(recs); ok {
			counts := make(map[[32]uintptr]int64, n)
			for _, r := range recs[:n] {
				counts[r.Stack0] += r.Count
			}
			return counts
		}
	}
}

// workerWaits counts the blocking events since before where a function of
// this module, the stack's second frame, made the blocking call, on a stack
// that holds a parallel.For worker body or Server.runJob. It renders one
// such stack, innermost frame first.
func workerWaits(before map[[32]uintptr]int64) (n int64, stack string) {
	for pcs, count := range blockProfile() {
		if count <= before[pcs] {
			continue
		}
		var fns []string
		frames := runtime.CallersFrames((&runtime.StackRecord{Stack0: pcs}).Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			fns = append(fns, f.Function)
		}
		inWorker := slices.ContainsFunc(fns, func(fn string) bool {
			return strings.HasPrefix(fn, "cmosopt/internal/parallel.For.func") || fn == "cmosopt/internal/serve.(*Server).runJob"
		})
		if inWorker && len(fns) > 1 && strings.HasPrefix(fns[1], "cmosopt/") {
			n += count - before[pcs]
			stack = strings.Join(fns, " < ")
		}
	}
	return n, stack
}

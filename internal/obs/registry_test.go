package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersAndWorkers(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Add(4)
	r.Counter("gauge").Set(9)
	r.Worker(2).Record(3*time.Millisecond, time.Millisecond, 10)

	s := r.Snapshot()
	if s.Counters["a"] != 7 || s.Counters["gauge"] != 9 {
		t.Fatalf("counters = %v", s.Counters)
	}
	// Workers 0 and 1 never recorded: only slot 2 appears.
	if len(s.Workers) != 1 || s.Workers[0].Worker != 2 {
		t.Fatalf("workers = %+v", s.Workers)
	}
	w := s.Workers[0]
	if w.Iterations != 10 || w.BusyNS != (3*time.Millisecond).Nanoseconds() {
		t.Fatalf("worker stats = %+v", w)
	}
	if want := 0.75; w.Utilization != want {
		t.Fatalf("utilization = %v, want %v", w.Utilization, want)
	}
}

func TestRegistryFinishIdempotent(t *testing.T) {
	r := NewRegistry()
	time.Sleep(time.Millisecond)
	d1 := r.Finish()
	d2 := r.Finish()
	if d1 < time.Millisecond || d1 != d2 {
		t.Fatalf("Finish = %v then %v, want equal and >= 1ms", d1, d2)
	}
	if w := r.Wall(); w != d1 {
		t.Fatalf("Wall = %v after Finish %v", w, d1)
	}
	s := r.Snapshot()
	if s.Spans == nil || s.Spans.Name != "run" || s.Spans.Count != 1 {
		t.Fatalf("root span = %+v", s.Spans)
	}
	if s.Spans.DurationNS < time.Millisecond.Nanoseconds() {
		t.Fatalf("root duration = %dns, want >= 1ms", s.Spans.DurationNS)
	}
}

func TestRegistryLiveSnapshot(t *testing.T) {
	r := NewRegistry()
	time.Sleep(time.Millisecond)
	s := r.Snapshot() // before Finish: root still running
	if s.Spans.DurationNS <= 0 || s.WallNS <= 0 {
		t.Fatalf("live snapshot has zero durations: %+v", s)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	if r.Root() != nil || r.Counter("x") != nil || r.Histogram("y") != nil || r.Worker(0) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if r.Finish() != 0 || r.Wall() != 0 {
		t.Fatal("nil registry durations must be zero")
	}
	if s := r.Snapshot(); s.Spans != nil {
		t.Fatalf("nil snapshot = %+v", s)
	}
	// The nil metrics must themselves accept calls.
	r.Counter("x").Add(1)
	r.Histogram("y").Observe(1)
	r.Worker(0).Record(time.Second, 0, 1)
	r.Root().Child("c").Start().Stop()
}

// TestRegistryConcurrent hammers every registry surface from many goroutines;
// run under -race it is the package's data-race certificate.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared").Add(1)
				r.Histogram("h").Observe(int64(i))
				r.Worker(w).Record(time.Microsecond, time.Microsecond, 1)
				r.Root().Child("phase").StartChild("leaf").Stop()
				if i%50 == 0 {
					_ = r.Snapshot() // concurrent reads while writing
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != workers*iters {
		t.Fatalf("shared = %d, want %d", s.Counters["shared"], workers*iters)
	}
	if s.Histograms["h"].Count != workers*iters {
		t.Fatalf("histogram count = %d", s.Histograms["h"].Count)
	}
	if len(s.Workers) != workers {
		t.Fatalf("got %d workers, want %d", len(s.Workers), workers)
	}
	phase := s.Spans.Children[0]
	if phase.Children[0].Count != workers*iters {
		t.Fatalf("phase = %+v", phase)
	}
}

func TestDefaultRegistry(t *testing.T) {
	if Default() != nil {
		t.Fatal("default registry must start nil")
	}
	r := NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != r {
		t.Fatal("SetDefault did not install")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not uninstall")
	}
}

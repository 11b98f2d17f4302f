package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrder(t *testing.T) {
	root := newSpan("run")
	opt := root.Child("optimize")
	opt.Child("vdd-level")
	opt.Child("refine")
	root.Child("elaborate") // created after optimize: order is first-seen

	// Child is get-or-create: same name returns the same node.
	if opt.Child("vdd-level") != opt.Child("vdd-level") {
		t.Fatal("Child returned distinct nodes for one name")
	}

	snap := root.Snapshot()
	if snap.Name != "run" || len(snap.Children) != 2 {
		t.Fatalf("root snapshot = %+v", snap)
	}
	if snap.Children[0].Name != "optimize" || snap.Children[1].Name != "elaborate" {
		t.Fatalf("children not in first-seen order: %s, %s",
			snap.Children[0].Name, snap.Children[1].Name)
	}
	kids := snap.Children[0].Children
	if len(kids) != 2 || kids[0].Name != "vdd-level" || kids[1].Name != "refine" {
		t.Fatalf("optimize children = %+v", kids)
	}
}

func TestSpanTimingAggregates(t *testing.T) {
	s := newSpan("work")
	for i := 0; i < 3; i++ {
		tm := s.Start()
		time.Sleep(time.Millisecond)
		if d := tm.Stop(); d < time.Millisecond {
			t.Fatalf("Stop returned %v, slept 1ms", d)
		}
		if d := tm.Stop(); d != 0 {
			t.Fatalf("second Stop returned %v, want 0 (idempotent)", d)
		}
	}
	snap := s.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if snap.DurationNS < 3*time.Millisecond.Nanoseconds() {
		t.Fatalf("duration = %dns, want >= 3ms", snap.DurationNS)
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	if s.Child("a") != nil || s.Start() != nil {
		t.Fatal("nil span methods must return zero values")
	}
	s.StartChild("b").Stop() // nil Timing Stop
	if snap := s.Snapshot(); snap.Name != "" || snap.Count != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

func TestSpanConcurrentTimings(t *testing.T) {
	s := newSpan("par")
	const workers, iters = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.StartChild("leaf").Stop()
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if len(snap.Children) != 1 || snap.Children[0].Count != workers*iters {
		t.Fatalf("leaf count = %+v", snap.Children)
	}
}

package serve

import (
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	// 1..100 ms: nearest-rank p50 is the 50th sample, p99 the 99th.
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100-i) * time.Millisecond // reversed: Summarize must sort
	}
	s, err := Summarize(samples)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 100 || s.P50 != 50*time.Millisecond || s.P99 != 99*time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]time.Duration{7 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 7*time.Millisecond || s.P99 != 7*time.Millisecond || s.Max != 7*time.Millisecond {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("Summarize(nil) succeeded, want error")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	samples := []time.Duration{3, 1, 2}
	if _, err := Summarize(samples); err != nil {
		t.Fatal(err)
	}
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Errorf("input mutated: %v", samples)
	}
}

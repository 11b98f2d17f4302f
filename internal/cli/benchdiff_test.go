package cli

import (
	"strings"
	"testing"

	"cmosopt/internal/obs"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: cmosopt
BenchmarkProcedure2-8                3     41000000 ns/op
BenchmarkProcedure2-8                3     39500000 ns/op
BenchmarkProcedure2-8                3     40200000 ns/op
BenchmarkEngineFullEval-8         1000      1100000 ns/op        512 B/op       3 allocs/op
BenchmarkEngineFullEval-8         1000      1050000 ns/op        512 B/op       3 allocs/op
BenchmarkEngineIncremental          50       220000 ns/op
PASS
ok      cmosopt 12.3s
`

func TestParseBench(t *testing.T) {
	recs, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	// Sorted by name; -8 suffix stripped; min across repeats kept.
	want := []struct {
		name    string
		ns      float64
		samples int
	}{
		{"BenchmarkEngineFullEval", 1050000, 2},
		{"BenchmarkEngineIncremental", 220000, 1},
		{"BenchmarkProcedure2", 39500000, 3},
	}
	for i, w := range want {
		r := recs[i]
		if r.Name != w.name || r.NsPerOp != w.ns || r.Samples != w.samples {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestParseBenchMemColumns(t *testing.T) {
	recs, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.BenchRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	fe := byName["BenchmarkEngineFullEval"]
	if !fe.MemMeasured || fe.BytesPerOp != 512 || fe.AllocsPerOp != 3 {
		t.Errorf("FullEval mem columns = %+v, want 512 B/op, 3 allocs/op", fe)
	}
	p2 := byName["BenchmarkProcedure2"]
	if p2.MemMeasured || p2.BytesPerOp != 0 || p2.AllocsPerOp != 0 {
		t.Errorf("Procedure2 should carry no mem columns: %+v", p2)
	}
}

func TestParseBenchMemMinAcrossRepeats(t *testing.T) {
	recs, err := ParseBench(strings.NewReader(
		"BenchmarkX-8 10 1000 ns/op 256 B/op 4 allocs/op\n" +
			"BenchmarkX-8 10 900 ns/op 128 B/op 2 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.NsPerOp != 900 || r.BytesPerOp != 128 || r.AllocsPerOp != 2 || !r.MemMeasured {
		t.Errorf("min folding wrong: %+v", r)
	}
}

func TestParseBenchBadMemColumn(t *testing.T) {
	if _, err := ParseBench(strings.NewReader(
		"BenchmarkX 10 1000 ns/op NaN B/op 0 allocs/op\n")); err == nil {
		t.Error("NaN B/op accepted")
	}
	if _, err := ParseBench(strings.NewReader(
		"BenchmarkX 10 1000 ns/op 64 B/op +Inf allocs/op\n")); err == nil {
		t.Error("Inf allocs/op accepted")
	}
}

func TestParseBenchNoSuffix(t *testing.T) {
	// Serial runs (GOMAXPROCS=1) emit no -N suffix; names with real hyphens
	// keep them.
	recs, err := ParseBench(strings.NewReader(
		"BenchmarkSTA 100 5000 ns/op\nBenchmarkSweep/fc-hi-4 10 900 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Name != "BenchmarkSTA" || recs[1].Name != "BenchmarkSweep/fc-hi" {
		t.Fatalf("got %+v", recs)
	}
}

func TestCompareBench(t *testing.T) {
	base := []obs.BenchRecord{
		{Name: "A", NsPerOp: 1000},
		{Name: "B", NsPerOp: 1000},
		{Name: "C", NsPerOp: 1000},
	}
	cur := []obs.BenchRecord{
		{Name: "A", NsPerOp: 1100}, // 1.1x: within gate
		{Name: "B", NsPerOp: 2000}, // 2.0x: regression
		// C deleted: must be flagged
		{Name: "D", NsPerOp: 9999}, // new benchmark: ignored
	}
	deltas := CompareBench(base, cur, 1.25)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["A"]; d.Regressed || d.Missing {
		t.Errorf("A should pass: %+v", d)
	}
	if d := byName["B"]; !d.Regressed {
		t.Errorf("B should regress: %+v", d)
	}
	if d := byName["C"]; !d.Missing {
		t.Errorf("C should be missing: %+v", d)
	}
	var sb strings.Builder
	if failed := RenderBenchDeltas(&sb, deltas); failed != 2 {
		t.Errorf("failed = %d, want 2\n%s", failed, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"ok      A", "FAIL    B", "MISSING C"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareBenchAllocGate(t *testing.T) {
	base := []obs.BenchRecord{
		{Name: "Zero", NsPerOp: 1000, MemMeasured: true}, // 0 allocs/op baseline
		{Name: "Some", NsPerOp: 1000, AllocsPerOp: 100, MemMeasured: true},
		{Name: "NoMem", NsPerOp: 1000},
	}
	cur := []obs.BenchRecord{
		// ns/op flat everywhere; only allocations move.
		{Name: "Zero", NsPerOp: 1000, AllocsPerOp: 500, MemMeasured: true},  // 0 → 500: fail
		{Name: "Some", NsPerOp: 1000, AllocsPerOp: 104, MemMeasured: true},  // within slack: pass
		{Name: "NoMem", NsPerOp: 1000, AllocsPerOp: 1e6, MemMeasured: true}, // baseline unmeasured: not gated
	}
	deltas := CompareBench(base, cur, 1.25)
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["Zero"]; !d.AllocRegressed {
		t.Errorf("Zero should alloc-regress: %+v", d)
	}
	if d := byName["Some"]; d.AllocRegressed {
		t.Errorf("Some is within slack, should pass: %+v", d)
	}
	if d := byName["NoMem"]; d.AllocRegressed {
		t.Errorf("NoMem has no measured baseline, should not be gated: %+v", d)
	}
	var sb strings.Builder
	if failed := RenderBenchDeltas(&sb, deltas); failed != 1 {
		t.Errorf("failed = %d, want 1\n%s", failed, sb.String())
	}
	if !strings.Contains(sb.String(), "allocs/op") {
		t.Errorf("alloc failure not rendered:\n%s", sb.String())
	}
}

func TestCompareBenchAllocSlackCapsZeroEscape(t *testing.T) {
	// The relative threshold alone can't gate a zero baseline (0 × anything
	// is 0); the absolute slack must cap the escape at allocSlack.
	base := []obs.BenchRecord{{Name: "Z", NsPerOp: 100, MemMeasured: true}}
	within := []obs.BenchRecord{{Name: "Z", NsPerOp: 100, AllocsPerOp: allocSlack, MemMeasured: true}}
	beyond := []obs.BenchRecord{{Name: "Z", NsPerOp: 100, AllocsPerOp: allocSlack + 1, MemMeasured: true}}
	if d := CompareBench(base, within, 1.25)[0]; d.AllocRegressed {
		t.Errorf("allocs/op at the slack bound should pass: %+v", d)
	}
	if d := CompareBench(base, beyond, 1.25)[0]; !d.AllocRegressed {
		t.Errorf("allocs/op beyond the slack bound should fail: %+v", d)
	}
}

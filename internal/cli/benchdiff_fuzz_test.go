package cli

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzParseBench drives ParseBench with arbitrary bench-output text. The
// parser fronts the CI regression gate, so it must hold its invariants on any
// input `go test -bench` (or a truncated/corrupted log of it) can produce:
//
//   - never panic, whatever the line shape;
//   - on success, return records sorted by name with no duplicates, each
//     folded from at least one measurement line;
//   - be deterministic: the same bytes parse to the same records, so the gate
//     cannot flap on re-runs.
//
// The committed corpus under testdata/fuzz/FuzzParseBench seeds the
// interesting shapes: well-formed multi-count output, missing -N suffixes,
// sub-benchmark names with real hyphens, non-numeric run counts, malformed
// ns/op values (the one parse error), and oversized/blank lines.
func FuzzParseBench(f *testing.F) {
	f.Add(benchOutput)
	f.Add("BenchmarkX-8 3 100 ns/op\nBenchmarkX-8 3 90 ns/op\n")
	f.Add("BenchmarkX 3 nan ns/op\n")
	f.Add("BenchmarkX three 100 ns/op\nBenchmark\n\nok cmosopt 1.2s\n")
	f.Add("BenchmarkA/sub-case-2 1 5 ns/op 16 B/op 1 allocs/op\n")
	f.Add("BenchmarkP-2 3 100 ns/op 5543 circuit-evals 574398 width-probes\n" +
		"BenchmarkP-2 3 90 ns/op 5543 circuit-evals 574398 width-probes\n")
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ParseBench(strings.NewReader(input))
		if err != nil {
			return // rejected input; the only contract is "no panic"
		}
		for i, r := range recs {
			if r.Name == "" {
				t.Fatalf("record %d has empty name", i)
			}
			if !strings.HasPrefix(r.Name, "Benchmark") {
				t.Fatalf("record %d name %q lacks Benchmark prefix", i, r.Name)
			}
			if r.Samples < 1 {
				t.Fatalf("record %q folded from %d lines", r.Name, r.Samples)
			}
			// NaN/Inf ns/op must be rejected at parse time: NaN compares
			// false to everything, so it could never trip the CI gate.
			if math.IsNaN(r.NsPerOp) || math.IsInf(r.NsPerOp, 0) {
				t.Fatalf("record %q has non-finite NsPerOp %v", r.Name, r.NsPerOp)
			}
			// Counts are gated exactly, so a NaN would pass every compare.
			for unit, v := range r.Counts {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("record %q has non-finite %s %v", r.Name, unit, v)
				}
			}
			if i > 0 && recs[i-1].Name >= r.Name {
				t.Fatalf("records unsorted or duplicated: %q before %q",
					recs[i-1].Name, r.Name)
			}
		}
		if !sort.SliceIsSorted(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name }) {
			t.Fatal("records not sorted by name")
		}
		again, err := ParseBench(strings.NewReader(input))
		if err != nil {
			t.Fatalf("second parse of accepted input failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("re-parse changed record count: %d vs %d", len(recs), len(again))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], again[i]) {
				t.Fatalf("re-parse changed record %d: %+v vs %+v", i, recs[i], again[i])
			}
		}
	})
}

package cli

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cmosopt/internal/obs"
)

// countUnits are the b.ReportMetric units that carry deterministic effort
// counts, sorted: the work an algorithm does, not how long it took. The
// gate compares them exactly.
var countUnits = []string{"circuit-evals", "coeff-misses", "width-probes"}

// ParseBench reads `go test -bench` text output and folds it into one
// BenchRecord per benchmark. With -count N each benchmark emits N measurement
// lines; NsPerOp keeps the minimum across them — a benchmark can run slow
// from scheduler interference but never fast by luck, so the minimum is the
// noise-robust statistic for a regression gate. Effort counts (countUnits)
// are kept as reported, and a count that differs between the lines of one
// benchmark is an error: it is not deterministic, so no exact gate can hold
// it. The -<GOMAXPROCS> suffix go test appends is stripped so baselines
// survive core-count changes.
func ParseBench(r io.Reader) ([]obs.BenchRecord, error) {
	type agg struct {
		runs      int
		minNs     float64
		samples   int
		minBytes  float64
		minAllocs float64
		mem       bool
		counts    map[string]float64
	}
	byName := map[string]*agg{}
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkName-8   3   123456789 ns/op [117 B/op] [0 allocs/op] [extra unit pairs...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		nsIdx, bIdx, aIdx := -1, -1, -1
		for i := 3; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				if nsIdx < 0 {
					nsIdx = i - 1
				}
			case "B/op":
				bIdx = i - 1
			case "allocs/op":
				aIdx = i - 1
			}
		}
		if nsIdx < 2 {
			continue
		}
		runs, err := strconv.Atoi(fields[1])
		if err != nil {
			continue
		}
		// Non-finite ns/op is as malformed as a non-number: NaN in particular
		// would poison the regression gate, since every NaN comparison is
		// false and the benchmark could never be flagged as regressed.
		ns, err := strconv.ParseFloat(fields[nsIdx], 64)
		if err != nil || math.IsNaN(ns) || math.IsInf(ns, 0) {
			return nil, fmt.Errorf("benchdiff: bad ns/op %q in %q", fields[nsIdx], sc.Text())
		}
		// Memory columns are optional (-benchmem / b.ReportAllocs); when
		// present they must parse, by the same poisoning argument.
		bytesOp, allocsOp, mem := 0.0, 0.0, false
		if bIdx >= 2 && aIdx >= 2 {
			bytesOp, err = strconv.ParseFloat(fields[bIdx], 64)
			if err != nil || math.IsNaN(bytesOp) || math.IsInf(bytesOp, 0) {
				return nil, fmt.Errorf("benchdiff: bad B/op %q in %q", fields[bIdx], sc.Text())
			}
			allocsOp, err = strconv.ParseFloat(fields[aIdx], 64)
			if err != nil || math.IsNaN(allocsOp) || math.IsInf(allocsOp, 0) {
				return nil, fmt.Errorf("benchdiff: bad allocs/op %q in %q", fields[aIdx], sc.Text())
			}
			mem = true
		}
		// Custom metrics follow ns/op as value-unit pairs.
		var counts map[string]float64
		for i := nsIdx + 3; i < len(fields); i++ {
			if !slices.Contains(countUnits, fields[i]) {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("benchdiff: bad %s %q in %q", fields[i], fields[i-1], sc.Text())
			}
			if counts == nil {
				counts = map[string]float64{}
			}
			counts[fields[i]] = v
		}
		name := trimProcsSuffix(fields[0])
		a := byName[name]
		if a == nil {
			a = &agg{minNs: ns, counts: counts}
			byName[name] = a
			order = append(order, name)
		} else {
			if !maps.Equal(counts, a.counts) {
				return nil, fmt.Errorf("benchdiff: %s: effort counts differ between -count repeats: %v, then %v",
					name, a.counts, counts)
			}
			if ns < a.minNs {
				a.minNs = ns
			}
		}
		if mem {
			if !a.mem || bytesOp < a.minBytes {
				a.minBytes = bytesOp
			}
			if !a.mem || allocsOp < a.minAllocs {
				a.minAllocs = allocsOp
			}
			a.mem = true
		}
		a.runs += runs
		a.samples++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	recs := make([]obs.BenchRecord, 0, len(order))
	for _, name := range order {
		a := byName[name]
		recs = append(recs, obs.BenchRecord{
			Name: name, Runs: a.runs, NsPerOp: a.minNs, Samples: a.samples,
			BytesPerOp: a.minBytes, AllocsPerOp: a.minAllocs, MemMeasured: a.mem,
			Counts: a.counts,
		})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	return recs, nil
}

// trimProcsSuffix removes the "-<n>" GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkProcedure2-8" → "BenchmarkProcedure2").
func trimProcsSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// BenchDelta is one baseline/current pair from CompareBench.
type BenchDelta struct {
	Name       string
	BaselineNs float64
	CurrentNs  float64
	Ratio      float64 // current / baseline
	Regressed  bool    // Ratio > threshold
	Missing    bool    // present in baseline, absent in current

	// Allocation gate (only when both records carry memory columns).
	BaselineAllocs float64
	CurrentAllocs  float64
	AllocRegressed bool

	// Count gate: each baseline effort count the current run reports with
	// another value or not at all, as "unit baseline -> current".
	CountsChanged []string
}

// Failed reports whether the entry fails the gate.
func (d BenchDelta) Failed() bool {
	return d.Missing || d.Regressed || d.AllocRegressed || len(d.CountsChanged) > 0
}

// allocSlack is the absolute allocs/op headroom the allocation gate ignores:
// a handful of allocations can appear from one-time warm-up amortized over a
// small -benchtime iteration count without meaning the steady state regressed.
const allocSlack = 8

// CompareBench pairs current measurements against a committed baseline.
// A benchmark regresses when current exceeds baseline × threshold (the CI
// gate uses 1.25, i.e. >25% slower fails). When both sides measured memory,
// allocs/op is gated too: growing more than threshold× AND by more than
// allocSlack absolute fails — the relative test alone would let a
// zero-allocation baseline accept any count, so the absolute slack doubles as
// the cap on a 0 → N escape. Benchmarks that exist only in the current run
// are new and pass by definition; benchmarks that vanished from the current
// run are flagged Missing so a gate can't be dodged by deleting the slow
// benchmark. Effort counts are gated exactly: every count the baseline
// records must come back with the same value.
func CompareBench(baseline, current []obs.BenchRecord, threshold float64) []BenchDelta {
	cur := make(map[string]obs.BenchRecord, len(current))
	for _, r := range current {
		cur[r.Name] = r
	}
	deltas := make([]BenchDelta, 0, len(baseline))
	for _, b := range baseline {
		d := BenchDelta{Name: b.Name, BaselineNs: b.NsPerOp}
		c, ok := cur[b.Name]
		if !ok {
			d.Missing = true
		} else {
			d.CurrentNs = c.NsPerOp
			if b.NsPerOp > 0 {
				d.Ratio = c.NsPerOp / b.NsPerOp
			}
			d.Regressed = d.Ratio > threshold
			if b.MemMeasured && c.MemMeasured {
				d.BaselineAllocs = b.AllocsPerOp
				d.CurrentAllocs = c.AllocsPerOp
				d.AllocRegressed = c.AllocsPerOp > b.AllocsPerOp*threshold &&
					c.AllocsPerOp > b.AllocsPerOp+allocSlack
			}
			for _, unit := range countUnits {
				want, gated := b.Counts[unit]
				got, ok := c.Counts[unit]
				if !gated || (ok && got == want) {
					continue
				}
				now := "missing"
				if ok {
					now = strconv.FormatFloat(got, 'f', -1, 64)
				}
				d.CountsChanged = append(d.CountsChanged,
					fmt.Sprintf("%s %s -> %s", unit, strconv.FormatFloat(want, 'f', -1, 64), now))
			}
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}

// RenderBenchDeltas writes a human-readable comparison table and returns how
// many entries fail the gate (missing, count-changed, regressed or
// alloc-regressed).
func RenderBenchDeltas(w io.Writer, deltas []BenchDelta) int {
	failed := 0
	for _, d := range deltas {
		if d.Failed() {
			failed++
		}
		switch {
		case d.Missing:
			fmt.Fprintf(w, "MISSING %-40s baseline %12.0f ns/op, absent from current run\n",
				d.Name, d.BaselineNs)
		case len(d.CountsChanged) > 0:
			fmt.Fprintf(w, "FAIL    %-40s %s\n", d.Name, strings.Join(d.CountsChanged, ", "))
		case d.Regressed:
			fmt.Fprintf(w, "FAIL    %-40s %12.0f -> %12.0f ns/op (%.2fx)\n",
				d.Name, d.BaselineNs, d.CurrentNs, d.Ratio)
		case d.AllocRegressed:
			fmt.Fprintf(w, "FAIL    %-40s %12.0f -> %12.0f allocs/op\n",
				d.Name, d.BaselineAllocs, d.CurrentAllocs)
		default:
			fmt.Fprintf(w, "ok      %-40s %12.0f -> %12.0f ns/op (%.2fx)\n",
				d.Name, d.BaselineNs, d.CurrentNs, d.Ratio)
		}
	}
	return failed
}

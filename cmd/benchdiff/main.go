// Command benchdiff is the CI benchmark-regression gate. It has three modes:
//
//	benchdiff -parse bench.txt -o bench.json
//	    Parse `go test -bench` text output into a manifest JSON
//	    (schema cmosopt/manifest/v3, Benchmarks populated). An effort
//	    count (circuit-evals, width-probes, coeff-misses) that differs
//	    between -count repeats is an error.
//
//	benchdiff -baseline BENCH_baseline.json -current bench.json [-threshold 1.25] [-filter regex]
//	    Compare a run against the committed baseline; exit 1 when any
//	    benchmark is more than threshold× slower, vanished entirely, or
//	    reports an effort count other than the baseline's.
//	    -filter restricts both sides to matching names, so one baseline
//	    file can hold several suites (go-bench records and loadgen latency
//	    records) gated by different CI jobs without tripping each other's
//	    vanished-benchmark check.
//
//	benchdiff -selftest
//	    Verify the gate itself: a synthetic 2× slowdown must fail, a
//	    within-noise 1.1× change must pass, an allocs/op blow-up on a
//	    memory-measured benchmark must fail, and so must a changed effort
//	    count.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strings"

	"cmosopt/internal/cli"
	"cmosopt/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	parse := flag.String("parse", "", "parse `go test -bench` output from this file (- for stdin)")
	out := flag.String("o", "", "with -parse: write the manifest JSON here (default stdout)")
	baseline := flag.String("baseline", "", "baseline manifest JSON to compare against")
	current := flag.String("current", "", "current-run manifest JSON to compare")
	threshold := flag.Float64("threshold", 1.25, "fail when current/baseline ns/op exceeds this ratio")
	filter := flag.String("filter", "", "compare only benchmarks whose name matches this regexp")
	selftest := flag.Bool("selftest", false, "verify the gate catches a 2x slowdown and passes a 1.1x one")
	flag.Parse()

	switch {
	case *selftest:
		if err := runSelftest(*threshold); err != nil {
			log.Fatal(err)
		}
		fmt.Println("selftest ok: 2.0x slowdown fails, 1.1x passes, a changed count fails")
	case *parse != "":
		if err := runParse(*parse, *out); err != nil {
			log.Fatal(err)
		}
	case *baseline != "" && *current != "":
		failed, err := runCompare(*baseline, *current, *threshold, *filter)
		if err != nil {
			log.Fatal(err)
		}
		if failed > 0 {
			log.Fatalf("%d benchmark(s) failed the gate (threshold %.2fx, counts exact)", failed, *threshold)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runParse(path, out string) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	recs, err := cli.ParseBench(r)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", path)
	}
	man := obs.NewManifest("benchdiff")
	man.Benchmarks = recs
	if out == "" {
		for _, rec := range recs {
			fmt.Printf("%-40s %12.0f ns/op (%d samples)\n", rec.Name, rec.NsPerOp, rec.Samples)
		}
		return nil
	}
	return man.WriteFile(out)
}

func runCompare(baselinePath, currentPath string, threshold float64, filter string) (int, error) {
	base, err := obs.ReadManifest(baselinePath)
	if err != nil {
		return 0, err
	}
	cur, err := obs.ReadManifest(currentPath)
	if err != nil {
		return 0, err
	}
	baseRecs, curRecs := base.Benchmarks, cur.Benchmarks
	if filter != "" {
		re, err := regexp.Compile(filter)
		if err != nil {
			return 0, fmt.Errorf("bad -filter: %w", err)
		}
		baseRecs, curRecs = filterRecords(baseRecs, re), filterRecords(curRecs, re)
	}
	if len(baseRecs) == 0 {
		return 0, fmt.Errorf("%s has no benchmarks matching the comparison", baselinePath)
	}
	deltas := cli.CompareBench(baseRecs, curRecs, threshold)
	return cli.RenderBenchDeltas(os.Stdout, deltas), nil
}

// filterRecords keeps the records whose name matches re, in order.
func filterRecords(recs []obs.BenchRecord, re *regexp.Regexp) []obs.BenchRecord {
	out := make([]obs.BenchRecord, 0, len(recs))
	for _, r := range recs {
		if re.MatchString(r.Name) {
			out = append(out, r)
		}
	}
	return out
}

// runSelftest exercises the gate with synthetic data so CI proves the
// comparator would actually catch a regression before trusting a green run.
func runSelftest(threshold float64) error {
	base := []obs.BenchRecord{
		{Name: "BenchmarkProcedure2", NsPerOp: 1e6},
		{Name: "BenchmarkEngineFullEval", NsPerOp: 2e5},
	}
	scale := func(f float64) []obs.BenchRecord {
		out := make([]obs.BenchRecord, len(base))
		for i, r := range base {
			r.NsPerOp *= f
			out[i] = r
		}
		return out
	}
	if n := countFailed(cli.CompareBench(base, scale(2.0), threshold)); n != len(base) {
		return fmt.Errorf("selftest: 2.0x slowdown flagged %d of %d benchmarks", n, len(base))
	}
	if n := countFailed(cli.CompareBench(base, scale(1.1), threshold)); n != 0 {
		return fmt.Errorf("selftest: 1.1x change flagged %d benchmarks, want 0", n)
	}
	if n := countFailed(cli.CompareBench(base, base[:1], threshold)); n != 1 {
		return fmt.Errorf("selftest: deleted benchmark flagged %d entries, want 1", n)
	}

	// Allocation gate: a zero-allocation sweep that starts allocating per op
	// must fail even when ns/op stays flat; a couple of warm-up allocations
	// must pass.
	memBase := []obs.BenchRecord{
		{Name: "BenchmarkEngineFullEval/s100k", NsPerOp: 1e7, MemMeasured: true},
	}
	withAllocs := func(a float64) []obs.BenchRecord {
		out := make([]obs.BenchRecord, len(memBase))
		for i, r := range memBase {
			r.AllocsPerOp = a
			r.BytesPerOp = a * 64
			out[i] = r
		}
		return out
	}
	if n := countFailed(cli.CompareBench(memBase, withAllocs(100000), threshold)); n != 1 {
		return fmt.Errorf("selftest: per-op allocation regression flagged %d entries, want 1", n)
	}
	if n := countFailed(cli.CompareBench(memBase, withAllocs(2), threshold)); n != 0 {
		return fmt.Errorf("selftest: warm-up-sized allocation count flagged %d entries, want 0", n)
	}

	// Filter gate: one baseline file holds both the go-bench suite and the
	// loadgen latency suite; a run carrying only one suite must pass under
	// its own filter and still trip the vanished-benchmark check without it.
	mixed := append(append([]obs.BenchRecord{}, base...),
		obs.BenchRecord{Name: "Loadgen/sweep/p50", NsPerOp: 2e7})
	re := regexp.MustCompile("^Benchmark")
	if n := countFailed(cli.CompareBench(filterRecords(mixed, re), filterRecords(base, re), threshold)); n != 0 {
		return fmt.Errorf("selftest: suite filter flagged %d entries, want 0", n)
	}
	if n := countFailed(cli.CompareBench(mixed, base, threshold)); n != 1 {
		return fmt.Errorf("selftest: unfiltered mixed baseline flagged %d entries, want 1 missing", n)
	}

	// Count gate: effort counts are compared exactly, so one extra circuit
	// evaluation fails even when the run got faster, and a count that moves
	// between -count repeats is rejected at parse time.
	counted := func(evals, ns float64) []obs.BenchRecord {
		return []obs.BenchRecord{{Name: "BenchmarkProcedure2/s298", NsPerOp: ns,
			Counts: map[string]float64{"circuit-evals": evals, "width-probes": 574398}}}
	}
	if n := countFailed(cli.CompareBench(counted(5543, 1e7), counted(5543, 1.1e7), threshold)); n != 0 {
		return fmt.Errorf("selftest: unchanged counts flagged %d entries, want 0", n)
	}
	if n := countFailed(cli.CompareBench(counted(5543, 1e7), counted(5544, 0.5e7), threshold)); n != 1 {
		return fmt.Errorf("selftest: changed circuit-evals count flagged %d entries, want 1", n)
	}
	if _, err := cli.ParseBench(strings.NewReader(
		"BenchmarkP 3 100 ns/op 5543 circuit-evals\nBenchmarkP 3 90 ns/op 5544 circuit-evals\n")); err == nil {
		return fmt.Errorf("selftest: a count that differs between -count repeats was accepted")
	}
	return nil
}

func countFailed(deltas []cli.BenchDelta) int {
	n := 0
	for _, d := range deltas {
		if d.Failed() {
			n++
		}
	}
	return n
}

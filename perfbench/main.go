// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the program's public API in a single process, checks
// every output, and prints the workload's metrics by name and unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// A run measures a fixed number of operations: --seconds times the
// workload's operation rate on the calibration host (opsPerSecond). So the
// operations a seed's run attempts, and which of them fail, do not depend on
// the host's speed.
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run measures the first half of its operations untraced
// and the second half traced, then runs the layer probes, and the metrics
// are the per-layer ones plus the tracing overhead. Spans are written to
// .bench_build/perfbench-<workload>-<seed>.spans.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload joint-large --seed 1 --seconds 30 --trace 0
//
// The workloads, their metrics and what each per-layer metric should move
// are described in perfbench/README.md. The exit status is nonzero only for
// a harness error, never for failed operations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// opsPerSecond is each workload's typical operation rate on the calibration
// host, a 2-vCPU x86-64 VM: a run of --seconds s measures seconds × rate
// operations.
var opsPerSecond = map[string]float64{
	"joint-large": 0.4,
	"serve-miss":  13,
	"serve-hit":   3500,
}

// spanDir is where a traced run writes its spans, relative to the working
// directory (the repository root).
const spanDir = ".bench_build"

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "joint-large, serve-miss or serve-hit")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured time on the calibration host (s)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0|1")
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		ops:      int(math.Round(float64(*seconds) * opsPerSecond[*workload])),
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		sc:       fullScale(),
	}
	rep, err := run(o)
	if err != nil {
		return err
	}
	if o.trace {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("perfbench-%s-%d.spans.json", o.workload, o.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans      %d written to %s\n", len(rep.spans), path)
	}
	return rep.print(out)
}

// metric is one named, unit-carrying result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and then the JSON result line.
func (r *report) print(out io.Writer) error {
	fmt.Fprintf(out, "workload   %s seed %d trace %v\n", r.workload, r.seed, r.trace)
	fmt.Fprintf(out, "inputs     sha256 %s\n", r.inputDigest)
	fmt.Fprintf(out, "outputs    sha256 %s\n", r.digest)
	for _, m := range r.mismatchTexts() {
		fmt.Fprintf(out, "MISMATCH   %s\n", m)
	}
	for _, p := range r.phases() {
		for _, f := range p.failTexts {
			fmt.Fprintf(out, "failed     %s\n", f)
		}
	}
	printE2E(out, "untraced", r.workload, r.untraced)
	if r.traced != nil {
		printE2E(out, "traced", r.workload, *r.traced)
		u, t := r.untraced.metrics(), r.traced.metrics()
		for _, name := range sortedKeys(u) {
			d := t[name].Value - u[name].Value
			fmt.Fprintf(out, "overhead   %-16s %+.6g %s (%+.2f%%)\n", name, d, u[name].Unit, 100*d/u[name].Value)
		}
		printSpanSummary(out, r.spans)
		for _, l := range layerMetrics {
			fmt.Fprintf(out, "layer      %-28s %14.6g %-6s → %s\n", l.name, r.layers[l.name], l.unit, l.moves)
		}
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.correct(),
		Attempted: r.attempted(),
		Failed:    r.failed(),
	}
	if r.traced == nil {
		res.Metrics = r.untraced.metrics()
	} else {
		res.Metrics = make(map[string]metric, len(layerMetrics))
		for _, l := range layerMetrics {
			res.Metrics[l.name] = metric{Value: r.layers[l.name], Unit: l.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func printE2E(out io.Writer, label, workload string, p phase) {
	m := p.metrics()
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(out, "e2e        %-8s %-16s %14.6g %s\n", label, name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(out, "e2e        %-8s %-16s %14.6g 1 (%d of %d operations)\n", label, "fail_ratio",
		float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)
	if workload == "joint-large" {
		fmt.Fprintf(out, "e2e        %-8s %-16s %14.6g s\n", label, "solve_s", quantile(p.lat, 0.5).Seconds())
	}
	fmt.Fprintf(out, "e2e        %-8s %-16s %14.6g ms (diagnostic)\n", label, "req_p99_ms", ms(quantile(p.lat, 0.99)))
	fmt.Fprintf(out, "samples    %-8s %d completed operations in %v\n", label, len(p.lat), p.elapsed.Round(time.Millisecond))
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

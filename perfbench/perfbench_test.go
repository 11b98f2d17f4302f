package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// testScale shrinks the workloads so a traced run takes well under a second
// per phase.
func testScale() scale {
	return scale{
		jointGates: 400, jointDepth: 16,
		missMinGates: 40, missMaxGates: 80,
		setups: 1, hitSetups: 1,
		jointDigest: 2, missDigest: 6,
		checks: 2, probes: 2,
	}
}

// exactCounts are the per-layer metrics that are counts of work, not times:
// the same seed must reproduce them exactly.
var exactCounts = []string{
	"core.circuit_evals",
	"eval.gate_delay_calls",
	"eval.width_probes",
	"eval.full_sweeps",
	"eval.coeff_misses",
	"eval.coeff_hit_ratio",
}

func TestSameSeedSameCountsAndOutputs(t *testing.T) {
	for _, wl := range []string{"joint-large", "serve-miss"} {
		t.Run(wl, func(t *testing.T) {
			o := options{workload: wl, seed: 7, ops: 12, window: time.Minute, trace: true, sc: testScale()}
			a, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(a.digest, "incomplete") || a.digest != b.digest {
				t.Errorf("output digests %q and %q", a.digest, b.digest)
			}
			if a.inputDigest != b.inputDigest {
				t.Errorf("input digests %q and %q", a.inputDigest, b.inputDigest)
			}
			if a.attempted() != o.ops || b.attempted() != o.ops {
				t.Errorf("attempted %d and %d operations, want %d", a.attempted(), b.attempted(), o.ops)
			}
			if a.failed() != b.failed() {
				t.Errorf("%d and %d operations failed", a.failed(), b.failed())
			}
			if !a.correct() {
				t.Errorf("mismatches: %v", a.mismatchTexts())
			}
			for _, name := range exactCounts {
				if a.layers[name] != b.layers[name] {
					t.Errorf("%s = %v, then %v", name, a.layers[name], b.layers[name])
				}
			}
			if a.layers["eval.gate_delay_calls"] == 0 {
				t.Error("no engine work counted")
			}
			for _, l := range layerMetrics {
				if _, ok := a.layers[l.name]; !ok {
					t.Errorf("per-layer metric %s missing", l.name)
				}
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	sc := testScale()
	for name, pool := range map[string]func(int64, scale) *netlistPool{"joint": jointPool, "miss": missPool} {
		a, err := pool(7, sc).digest(2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pool(8, sc).digest(2)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", name)
		}
	}
	same := true
	for i := 0; i < 20; i++ {
		same = same && hitMix(7, i, 50) == hitMix(8, i, 50)
	}
	if same {
		t.Error("serve-hit: seeds 7 and 8 give the same replay sequence")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if want := time.Duration(100 - 40 - 10); self[0] != want {
		t.Errorf("root self time %v, want %v", self[0], want)
	}
	if self[1] != 30 || self[3] != 30 {
		t.Errorf("leaf self times %v and %v, want their durations", self[1], self[3])
	}
}

func TestQuantileNearestRank(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if q := quantile(ds, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(ds, 0.9); q != 5 {
		t.Errorf("p90 %v", q)
	}
	if ds[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit string
	}
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e := phase{}.metrics()
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(e2e))
	}
	for _, e := range b.EndToEnd {
		if m, ok := e2e[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("end-to-end %s [%s] not reported with that unit", e.Name, e.Unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, e := range b.PerLayer {
		if l := layerMetrics[i]; l.name != e.Name || l.unit != e.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, e.Name, e.Unit, l.name, l.unit)
		}
	}
}

package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenManifest is a fully deterministic manifest (no runtime stamps, no
// clocks) so its serialized form can be compared byte-for-byte.
func goldenManifest() *Manifest {
	return &Manifest{
		Schema:    SchemaVersion,
		Tool:      "sweep",
		GoVersion: "go1.22.0",
		GOOS:      "linux",
		GOARCH:    "amd64",
		CPUs:      8,
		Circuit:   "s298",
		Gates:     119,
		FcHz:      3e8,
		Workers:   4,
		WallNS:    1234567,
		Results: []ResultRecord{{
			Label:          "fc=300MHz",
			Method:         "joint",
			FcHz:           3e8,
			Vdd:            1.45,
			Vts:            []float64{0.31},
			EnergyStatic:   1.2e-12,
			EnergyDynamic:  8.8e-12,
			EnergyTotal:    1e-11,
			CriticalDelayS: 3.2e-9,
			Feasible:       true,
			Evaluations:    5543,
		}},
		Benchmarks: []BenchRecord{{
			Name: "BenchmarkProcedure2", Runs: 9, NsPerOp: 17125776, Samples: 3,
			Counts: map[string]float64{"circuit-evals": 5543, "width-probes": 574398},
		}},
		Obs: &Snapshot{
			WallNS:   1234567,
			Counters: map[string]int64{"eval.full_delay_sweeps": 42},
			Histograms: map[string]HistogramSnapshot{
				"eval.full_sweep_ns": {
					Count: 2, Sum: 300, Min: 100, Max: 200, Mean: 150,
					Buckets: []Bucket{{64, 128, 1}, {128, 256, 1}},
				},
			},
			Workers: []WorkerSnapshot{
				{Worker: 0, BusyNS: 900, IdleNS: 100, Iterations: 7, Utilization: 0.9},
			},
			Spans: &SpanSnapshot{
				Name: "run", Count: 1, DurationNS: 1234567,
				Children: []SpanSnapshot{
					{Name: "elaborate", Count: 1, DurationNS: 1000},
					{Name: "optimize.joint", Count: 1, DurationNS: 1230000,
						Children: []SpanSnapshot{
							{Name: "vdd-level", Count: 12, DurationNS: 1200000},
						}},
				},
			},
		},
	}
}

// TestManifestGolden locks the on-disk schema: writing the canonical manifest
// must reproduce testdata/manifest_golden.json byte-for-byte, and reading it
// back must return the identical structure. A diff here means the manifest
// schema changed — update SchemaVersion and the golden file together.
func TestManifestGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := goldenManifest().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run TestManifestGolden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("serialized manifest diverged from %s:\n--- got ---\n%s", golden, got)
	}

	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenManifest()) {
		t.Errorf("round-trip changed the manifest:\ngot  %+v\nwant %+v", back, goldenManifest())
	}
}

func TestReadManifestRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	m := goldenManifest()
	m.Schema = "cmosopt/manifest/v0"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Fatal("ReadManifest accepted a wrong schema version")
	}
}

func TestNewManifestStampsEnvironment(t *testing.T) {
	m := NewManifest("verify")
	if m.Schema != SchemaVersion || m.Tool != "verify" {
		t.Fatalf("manifest header = %+v", m)
	}
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.CPUs < 1 {
		t.Fatalf("environment not stamped: %+v", m)
	}
}

func TestManifestFinishEmbedsSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(1)
	m := NewManifest("t")
	m.Finish(r)
	if m.WallNS <= 0 || m.Obs == nil || m.Obs.Counters["c"] != 1 {
		t.Fatalf("Finish did not embed the snapshot: %+v", m)
	}
	m2 := NewManifest("t")
	m2.Finish(nil) // nil registry: manifest stays bare
	if m2.Obs != nil || m2.WallNS != 0 {
		t.Fatalf("Finish(nil) populated obs: %+v", m2)
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// SchemaVersion identifies the manifest JSON layout. Consumers (the CI
// benchmark-regression gate, cross-run comparisons) check it before reading
// anything else; bump it only for incompatible changes.
const SchemaVersion = "cmosopt/manifest/v3"

// Manifest is the machine-readable record of one tool run: what ran, on what,
// with what result, how long it took and where the time went. Every cmd/*
// tool writes one with -metrics out.json; the CI bench-regress job writes
// BENCH_*.json files in the same schema (with Benchmarks populated) and
// compares them across commits with cmd/benchdiff.
type Manifest struct {
	Schema    string `json:"schema"`
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	// Workload identification (zero values omitted where not applicable).
	Circuit string  `json:"circuit,omitempty"`
	Gates   int     `json:"gates,omitempty"`
	FcHz    float64 `json:"fc_hz,omitempty"`
	Workers int     `json:"workers,omitempty"`

	WallNS int64 `json:"wall_ns"`

	// Results holds one record per optimization outcome the run produced
	// (one for cmd/lowpower, one per sweep point for cmd/sweep, …).
	Results []ResultRecord `json:"results,omitempty"`

	// Benchmarks holds parsed `go test -bench` measurements (cmd/benchdiff
	// -parse); empty for ordinary tool runs.
	Benchmarks []BenchRecord `json:"benchmarks,omitempty"`

	// Obs is the registry snapshot: span tree, engine counters, histograms,
	// per-worker utilization.
	Obs *Snapshot `json:"obs,omitempty"`
}

// ResultRecord summarizes one optimization result inside a manifest.
type ResultRecord struct {
	Label          string    `json:"label,omitempty"`
	Method         string    `json:"method,omitempty"`
	FcHz           float64   `json:"fc_hz,omitempty"`
	Vdd            float64   `json:"vdd"`
	Vts            []float64 `json:"vts,omitempty"`
	EnergyStatic   float64   `json:"energy_static"`
	EnergyDynamic  float64   `json:"energy_dynamic"`
	EnergyTotal    float64   `json:"energy_total"`
	CriticalDelayS float64   `json:"critical_delay_s"`
	Feasible       bool      `json:"feasible"`
	Evaluations    int       `json:"evaluations,omitempty"`
}

// BenchRecord is one benchmark measurement: the minimum ns/op observed for
// the benchmark across repeated runs (-count), the currency the regression
// gate compares in. When the benchmark reported memory statistics (-benchmem
// or b.ReportAllocs), the minimum B/op and allocs/op ride along so the gate
// can also catch allocation regressions — a sweep that silently starts
// allocating per gate is a scalability bug long before it is a ns/op one.
// Deterministic effort counts ride along in Counts, which the gate compares
// exactly: an algorithmic change shows there even on a noisy runner.
type BenchRecord struct {
	Name    string  `json:"name"`
	Runs    int     `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
	// Samples is how many measurement lines (-count repeats) were folded
	// into NsPerOp.
	Samples int `json:"samples,omitempty"`
	// BytesPerOp and AllocsPerOp are the minimum B/op and allocs/op across
	// the folded lines; meaningful only when MemMeasured is true (zero is a
	// legitimate — and guarded — value for the steady-state sweeps).
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MemMeasured bool    `json:"mem_measured,omitempty"`
	// Counts holds the effort counts the benchmark reported through
	// b.ReportMetric (circuit-evals, width-probes, coeff-misses), keyed by
	// unit. Every folded line reported the same value.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// NewManifest returns a manifest stamped with the build/host environment.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Schema:    SchemaVersion,
		Tool:      tool,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// Finish freezes the registry (stopping its root span) and embeds its
// snapshot. A nil registry leaves the manifest's Obs section empty.
func (m *Manifest) Finish(r *Registry) {
	if r == nil {
		return
	}
	m.WallNS = r.Finish().Nanoseconds()
	s := r.Snapshot()
	m.Obs = &s
}

// WriteFile writes the manifest as indented JSON (map keys sorted by
// encoding/json, so output is stable for fixed contents).
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadManifest loads and schema-checks a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, m.Schema, SchemaVersion)
	}
	return &m, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"cmosopt/internal/analysis"
)

// -units modes: introspection over the //cmosvet:unit annotation surface.
//
//	cmosvet -units=report ./...    # dump the unit environment as JSON
//	cmosvet -units=coverage ./...  # enforce the annotation-coverage floor
//
// report emits one JSON object on stdout (schema cmosvet/units/v1): per
// package, the flat declaration-key → canonical-dimension table the package
// facts carry — exactly what cross-package dimcheck resolution sees. CI
// archives it as an artifact so the annotated surface is diffable across
// commits.
//
// coverage counts the exported float-carrier fields of exported struct types
// in the model packages and fails (exit 1) when fewer than coverageFloor of
// them carry a unit annotation — the regression gate that keeps the physical
// surface annotated as it grows.

// unitsSchema identifies the -units=report JSON shape.
const unitsSchema = "cmosvet/units/v1"

// coverageFloor is the minimum annotated fraction of exported float fields.
const coverageFloor = 0.90

// coveragePackages are the model packages the coverage gate measures by
// default (module-root-relative); their exported float64 fields are the
// quantities the paper's equations flow through.
var coveragePackages = []string{
	"internal/device",
	"internal/power",
	"internal/delay",
	"internal/timing",
}

// defaultCoveragePatterns anchors coveragePackages at the module root, so the
// gate measures the same surface from any working directory.
func defaultCoveragePatterns() ([]string, error) {
	modRoot, _, err := findModule(".")
	if err != nil {
		return nil, err
	}
	out := make([]string, len(coveragePackages))
	for i, p := range coveragePackages {
		out[i] = filepath.Join(modRoot, filepath.FromSlash(p)) + string(filepath.Separator) + "..."
	}
	return out, nil
}

// unitsReportFile is the -units=report JSON shape.
type unitsReportFile struct {
	Schema   string                       `json:"schema"`
	Packages map[string]map[string]string `json:"packages"`
}

// runUnits dispatches a -units mode over the matched packages. Returns the
// process exit code.
func runUnits(mode string, patterns []string) int {
	switch mode {
	case "report":
		return unitsReport(patterns)
	case "coverage":
		if len(patterns) == 0 {
			var err error
			if patterns, err = defaultCoveragePatterns(); err != nil {
				return fail(err)
			}
		}
		return unitsCoverage(patterns)
	default:
		return fail(fmt.Errorf("-units=%q: want \"report\" or \"coverage\"", mode))
	}
}

// unitsReport dumps every matched package's unit-fact table as one JSON
// object on stdout.
func unitsReport(patterns []string) int {
	report := unitsReportFile{Schema: unitsSchema, Packages: map[string]map[string]string{}}
	if err := forEachPackage(patterns, func(pkg *analysis.LoadedPackage, _ analysis.FactProvider) error {
		units := analysis.ComputePkgFacts(pkg).Units
		if len(units) > 0 {
			report.Packages[pkg.Path] = units
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(report); err != nil {
		return fail(err)
	}
	return 0
}

// unitsCoverage enforces the annotation-coverage floor over the matched
// packages, printing per-package fractions and listing every unannotated
// exported float field.
func unitsCoverage(patterns []string) int {
	type row struct {
		path             string
		annotated, total int
		missing          []string
	}
	var rows []row
	if err := forEachPackage(patterns, func(pkg *analysis.LoadedPackage, _ analysis.FactProvider) error {
		// A package without exported float fields (an external test
		// package, say) has nothing to measure and prints no row.
		if a, n, missing := analysis.UnitCoverage(pkg); n > 0 {
			rows = append(rows, row{path: pkg.Path, annotated: a, total: n, missing: missing})
		}
		return nil
	}); err != nil {
		return fail(err)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].path < rows[j].path })
	annotated, total := 0, 0
	for _, r := range rows {
		annotated += r.annotated
		total += r.total
		pct := 100 * float64(r.annotated) / float64(r.total)
		fmt.Printf("%s: %d/%d exported float fields annotated (%.0f%%)\n", r.path, r.annotated, r.total, pct)
		sort.Strings(r.missing)
		for _, key := range r.missing {
			fmt.Printf("  missing: %s\n", key)
		}
	}
	if total == 0 {
		fmt.Fprintf(os.Stderr, "cmosvet: -units=coverage matched no exported float fields\n")
		return 2
	}
	frac := float64(annotated) / float64(total)
	fmt.Printf("total: %d/%d (%.0f%%), floor %.0f%%\n", annotated, total, 100*frac, 100*coverageFloor)
	if frac < coverageFloor {
		fmt.Fprintf(os.Stderr, "cmosvet: unit-annotation coverage %.0f%% is below the %.0f%% floor\n",
			100*frac, 100*coverageFloor)
		return 1
	}
	return 0
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmosopt/internal/analysis"
)

// chdirTestdata moves into the module testdata/<name> (the seeded-violation
// canary, say) for the duration of one test: standalone resolves the module
// from the working directory.
func chdirTestdata(t *testing.T, name string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", name)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	defer func() {
		os.Stdout = old
		w.Close()
	}()
	f()
	os.Stdout = old
	w.Close()
	return <-done
}

// TestCanaryFailsStandalone is the in-repo half of the CI canary: the seeded
// module must make cmosvet exit non-zero, proving the gate can still fail.
func TestCanaryFailsStandalone(t *testing.T) {
	chdirTestdata(t, "canary")
	if exit := standalone([]string{"./..."}, analysis.All(), false); exit != 1 {
		t.Fatalf("standalone over canary exited %d, want 1 (seeded violation must be found)", exit)
	}
}

// TestCanarySeedsExactlyTwoViolations pins the canary's shape through the
// -json output: the floateq finding in seeded.go and the dimcheck finding in
// seededunits.go, each with a module-relative path.
func TestCanarySeedsExactlyTwoViolations(t *testing.T) {
	chdirTestdata(t, "canary")
	var exit int
	out := captureStdout(t, func() {
		exit = standalone([]string{"./..."}, analysis.All(), true)
	})
	if exit != 1 {
		t.Fatalf("exit = %d, want 1", exit)
	}
	var rows []jsonDiagnostic
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(rows) != 2 {
		t.Fatalf("canary produced %d findings, want exactly 2: %+v", len(rows), rows)
	}
	want := map[string]string{
		"floateq":  "internal/core/seeded.go",
		"dimcheck": "internal/core/seededunits.go",
	}
	for _, d := range rows {
		file, ok := want[d.Analyzer]
		if !ok {
			t.Errorf("unexpected analyzer %q: %+v", d.Analyzer, d)
			continue
		}
		delete(want, d.Analyzer)
		if filepath.ToSlash(d.File) != file {
			t.Errorf("%s finding in %q, want %s", d.Analyzer, d.File, file)
		}
		if d.Line == 0 || d.Col == 0 || d.Message == "" {
			t.Errorf("incomplete row: %+v", d)
		}
	}
	for analyzer := range want {
		t.Errorf("canary produced no %s finding", analyzer)
	}
}

// TestExternalTestPackagesAnalyzed: the walk loads each directory's external
// test package ("package core_test") as a package of its own, so evalroute
// reports the evaluator its test constructs outside the model packages.
func TestExternalTestPackagesAnalyzed(t *testing.T) {
	chdirTestdata(t, "xtest")
	var exit int
	out := captureStdout(t, func() {
		exit = standalone([]string{"./..."}, []*analysis.Analyzer{analysis.EvalRoute}, true)
	})
	if exit != 1 {
		t.Fatalf("exit = %d, want 1 (the external test's delay.New must be found)", exit)
	}
	var rows []jsonDiagnostic
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(rows) != 1 || filepath.ToSlash(rows[0].File) != "internal/core/core_test.go" ||
		!strings.Contains(rows[0].Message, "delay.New") {
		t.Fatalf("findings = %+v, want the one delay.New in internal/core/core_test.go", rows)
	}
}

// TestUnitsReport pins the -units=report shape over the canary module: valid
// JSON under the units fact schema, carrying the seeded parameter bindings.
func TestUnitsReport(t *testing.T) {
	chdirTestdata(t, "canary")
	var exit int
	out := captureStdout(t, func() { exit = runUnits("report", []string{"./..."}) })
	if exit != 0 {
		t.Fatalf("-units=report exited %d, want 0", exit)
	}
	var rep unitsReportFile
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out)
	}
	if rep.Schema != unitsSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, unitsSchema)
	}
	units := rep.Packages["canary/internal/core"]
	if units["perCycle.param.e"] != "J" || units["perCycle.param.p"] != "W" {
		t.Errorf("canary package units = %v, want perCycle.param.e=J and perCycle.param.p=W", units)
	}
}

// TestUnitsCoverageMeetsFloor runs the real coverage gate over the module's
// model packages: the annotated surface must stay at or above the floor.
func TestUnitsCoverageMeetsFloor(t *testing.T) {
	out := captureStdout(t, func() {
		if exit := runUnits("coverage", nil); exit != 0 {
			t.Errorf("-units=coverage exited %d, want 0", exit)
		}
	})
	if !strings.Contains(out, "floor") {
		t.Errorf("coverage output lacks the floor summary:\n%s", out)
	}
}

// TestUnitsCoverageRejectsEmptySurface: a module with no exported float
// fields cannot satisfy the gate vacuously.
func TestUnitsCoverageRejectsEmptySurface(t *testing.T) {
	chdirTestdata(t, "canary")
	if exit := runUnits("coverage", []string{"./..."}); exit != 2 {
		t.Errorf("coverage over fieldless module exited %d, want 2", exit)
	}
}

func TestUnitsUnknownMode(t *testing.T) {
	if exit := runUnits("bogus", nil); exit != 2 {
		t.Errorf("-units=bogus exited %d, want 2", exit)
	}
}

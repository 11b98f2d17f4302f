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
// module must make cmosvet exit non-zero, with all analyzers and with each
// one alone, proving no analyzer of the gate has gone blind.
func TestCanaryFailsStandalone(t *testing.T) {
	chdirTestdata(t, "canary")
	if exit := standalone([]string{"./..."}, analysis.All(), false); exit != 1 {
		t.Fatalf("standalone over canary exited %d, want 1 (seeded violations must be found)", exit)
	}
	for _, a := range analysis.All() {
		if exit := standalone([]string{"./..."}, []*analysis.Analyzer{a}, false); exit != 1 {
			t.Errorf("-analyzers %s over canary exited %d, want 1", a.Name, exit)
		}
	}
}

// TestCanarySeedsOneViolationPerAnalyzer pins the canary's shape through the
// -json output: exactly one finding per analyzer of the suite, in the file
// named after it, each with a module-relative path.
func TestCanarySeedsOneViolationPerAnalyzer(t *testing.T) {
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
	want := map[string]string{}
	for _, a := range analysis.All() {
		want[a.Name] = "internal/core/" + a.Name + ".go"
	}
	if len(rows) != len(want) {
		t.Fatalf("canary produced %d findings, want exactly %d: %+v", len(rows), len(want), rows)
	}
	for _, d := range rows {
		file, ok := want[d.Analyzer]
		if !ok {
			t.Errorf("unexpected or repeated analyzer %q: %+v", d.Analyzer, d)
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

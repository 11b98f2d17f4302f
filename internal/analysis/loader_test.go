package analysis_test

import (
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cmosopt/internal/analysis"
)

func loaderRoot(t *testing.T, elem ...string) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join(append([]string{"testdata", "loader"}, elem...)...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasSymbol(p *analysis.LoadedPackage, name string) bool {
	return p.Types.Scope().Lookup(name) != nil
}

func TestLoaderBuildConstraints(t *testing.T) {
	l := analysis.NewLoader(analysis.Root{Prefix: "", Dir: loaderRoot(t, "src")})
	p, err := l.Load("taggy")
	if err != nil {
		t.Fatalf("Load(taggy): %v", err)
	}
	if !hasSymbol(p, "A") {
		t.Fatal("unconditional file not loaded")
	}
	// b_off.go redeclares A behind an unset build tag: loading it would have
	// failed type-checking, so reaching here already proves the exclusion —
	// the symbol check just makes the failure mode explicit.
	if hasSymbol(p, "BOff") {
		t.Fatal("file behind unset //go:build tag was loaded")
	}
	if runtime.GOOS != "windows" && hasSymbol(p, "CWindows") {
		t.Fatal("_windows GOOS-suffixed file was loaded on " + runtime.GOOS)
	}
	if hasSymbol(p, "THelper") {
		t.Fatal("_test.go file loaded without IncludeTests")
	}
	if pkgs, err := l.LoadDir("taggy", loaderRoot(t, "src", "taggy")); err != nil || len(pkgs) != 1 {
		t.Fatalf("LoadDir(taggy) without IncludeTests: %d packages, err %v; want the package alone", len(pkgs), err)
	}
}

func TestLoaderIncludeTests(t *testing.T) {
	l := analysis.NewLoader(analysis.Root{Prefix: "", Dir: loaderRoot(t, "src")})
	l.IncludeTests = true
	p, err := l.Load("taggy")
	if err != nil {
		t.Fatalf("Load(taggy): %v", err)
	}
	if !hasSymbol(p, "THelper") {
		t.Fatal("in-package _test.go symbol missing with IncludeTests")
	}
	// The external test package's file parses but must be dropped, never
	// merged into the primary package.
	for _, f := range p.Files {
		if f.Name.Name != "taggy" {
			t.Fatalf("foreign package %q mixed into taggy", f.Name.Name)
		}
	}
	if hasSymbol(p, "External") {
		t.Fatal("external test package symbol merged into the package under test")
	}
	// LoadDir returns the external test package as a package of its own,
	// after the package it tests (here already loaded by Load).
	pkgs, err := l.LoadDir("taggy", loaderRoot(t, "src", "taggy"))
	if err != nil {
		t.Fatalf("LoadDir(taggy): %v", err)
	}
	if len(pkgs) != 2 || pkgs[0] != p || pkgs[1].Path != "taggy_test" || !hasSymbol(pkgs[1], "External") {
		t.Fatalf("LoadDir(taggy) = %d packages, want taggy then taggy_test declaring External", len(pkgs))
	}
}

func TestLoaderImportCycle(t *testing.T) {
	l := analysis.NewLoader(analysis.Root{Prefix: "", Dir: loaderRoot(t, "src")})
	_, err := l.Load("cyca")
	if err == nil {
		t.Fatal("Load(cyca) succeeded; want import-cycle error")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("Load(cyca) error = %v, want mention of an import cycle", err)
	}
	// The failed load must not poison the loader: an unrelated package still
	// loads afterwards.
	if _, err := l.Load("taggy"); err != nil {
		t.Fatalf("Load(taggy) after cycle error: %v", err)
	}
}

func TestPackageDirsSkipsNonBuildTrees(t *testing.T) {
	root := loaderRoot(t, "walk")
	dirs, err := analysis.PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var rel []string
	for _, d := range dirs {
		r, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		rel = append(rel, filepath.ToSlash(r))
	}
	sort.Strings(rel)
	want := []string{"good", "nested/deeper"}
	if len(rel) != len(want) {
		t.Fatalf("PackageDirs = %v, want %v (vendor, testdata, _skip, .hidden and file-less dirs skipped)", rel, want)
	}
	for i := range want {
		if rel[i] != want[i] {
			t.Fatalf("PackageDirs = %v, want %v", rel, want)
		}
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cmosopt/internal/analysis"
)

// standalone runs the analyzers over every package the patterns match (the
// whole module by default) and prints the diagnostics, merged across
// packages and analyzers, once in the byte-stable (file, line, col,
// analyzer) order. Returns the process exit code.
func standalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	var all []analysis.Diagnostic
	err := forEachPackage(patterns, func(pkg *analysis.LoadedPackage, facts analysis.FactProvider) error {
		diags, err := analyzePackage(pkg, facts, analyzers)
		all = append(all, diags...)
		return err
	})
	analysis.SortDiagnostics(all)
	printDiagnostics(all, jsonOut)
	switch {
	case err != nil:
		return fail(err)
	case len(all) > 0:
		return 1
	}
	return 0
}

// fail reports an internal or usage error and returns its exit code.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "cmosvet: %v\n", err)
	return 2
}

// forEachPackage loads every package the patterns match ("./..." when none
// are given) and hands each to fn with the loader as its fact provider: a
// directory's package, then its external test package if it has one. This
// is the one package walk every cmosvet mode shares. Loading is sequential
// (the type-checker memoizes shared dependencies); the first load or fn
// error ends the walk.
func forEachPackage(patterns []string, fn func(pkg *analysis.LoadedPackage, facts analysis.FactProvider) error) error {
	modRoot, modPath, err := findModule(".")
	if err != nil {
		return err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := matchDirs(modRoot, patterns)
	if err != nil {
		return err
	}
	loader := analysis.NewLoader(analysis.Root{Prefix: modPath, Dir: modRoot})
	loader.IncludeTests = true
	for _, dir := range dirs {
		rel, err := filepath.Rel(modRoot, dir)
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs, err := loader.LoadDir(importPath, dir)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			if err := fn(pkg, loader); err != nil {
				return err
			}
		}
	}
	return nil
}

// analyzePackage runs the analyzers over one package concurrently — they
// only read the package and go through the mutex-guarded fact provider — and
// returns their diagnostics (unsorted: the caller merges and sorts
// globally).
func analyzePackage(pkg *analysis.LoadedPackage, facts analysis.FactProvider, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	diags := make([][]analysis.Diagnostic, len(analyzers))
	errs := make([]error, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *analysis.Analyzer) {
			defer wg.Done()
			diags[i], errs[i] = analysis.Analyze(a, pkg, facts)
		}(i, a)
	}
	wg.Wait()
	var out []analysis.Diagnostic
	for _, d := range diags {
		out = append(out, d...)
	}
	return out, errors.Join(errs...)
}

// jsonDiagnostic is the -json output row; file is printed exactly as the
// human output would print it.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// printDiagnostics emits the (already sorted) findings: JSON array on stdout
// when jsonOut, conventional file:line:col lines on stderr otherwise.
func printDiagnostics(diags []analysis.Diagnostic, jsonOut bool) {
	if !jsonOut {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		return
	}
	rows := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		rows = append(rows, jsonDiagnostic{
			File: relPath(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	enc.Encode(rows)
}

func relPath(p string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
	}
	return p
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(abs, "go.mod")
		if _, statErr := os.Stat(gm); statErr == nil {
			p, perr := modulePath(gm)
			if perr != nil {
				return "", "", perr
			}
			return abs, p, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		abs = parent
	}
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// matchDirs expands the command-line patterns into package directories.
// "./..." (optionally rooted, e.g. "./internal/...") walks recursively via
// analysis.PackageDirs — which skips hidden, underscore, testdata and vendor
// trees — and anything else names a single directory.
func matchDirs(modRoot string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "..."); ok {
			base = strings.TrimSuffix(base, "/")
			if base == "" || base == "." {
				base = modRoot
			}
			dirs, err := analysis.PackageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				abs, aerr := filepath.Abs(d)
				if aerr != nil {
					return nil, aerr
				}
				add(abs)
			}
			continue
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !hasGoFiles(abs) {
			return nil, fmt.Errorf("no Go files in %s", pat)
		}
		add(abs)
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

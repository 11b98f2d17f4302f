package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Root maps an import-path prefix to the directory tree holding its source:
// {"cmosopt", "/repo"} resolves "cmosopt/internal/eval" to
// /repo/internal/eval. The analysistest harness uses a root with prefix ""
// so every non-standard-library path resolves GOPATH-style under testdata.
type Root struct {
	Prefix string
	Dir    string
}

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Fset  *token.FileSet

	// xtestFiles are the directory's external test files ("package
	// foo_test"), parsed with the package and type-checked by LoadDir.
	xtestFiles []*ast.File
}

// Loader parses and type-checks packages from source, resolving module
// imports through Roots and everything else through the standard library's
// export data, which the go command builds into its cache. It memoizes by
// import path, so each package of a run is read once.
type Loader struct {
	Fset *token.FileSet
	// Roots are tried in order; the first prefix match wins.
	Roots []Root
	// IncludeTests adds in-package *_test.go files to each loaded package;
	// LoadDir then also returns the directory's external test package
	// ("package foo_test"), which is never mixed into the package it tests.
	IncludeTests bool

	std     types.Importer
	pkgs    map[string]*LoadedPackage
	facts   map[string]PkgFacts
	factsMu sync.Mutex
}

// NewLoader returns a Loader over the given roots.
func NewLoader(roots ...Root) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		Roots: roots,
		std:   importer.ForCompiler(fset, "gc", nil),
		pkgs:  make(map[string]*LoadedPackage),
	}
}

// dirFor resolves an import path through Roots; ok is false when no root
// prefix matches (i.e. the path belongs to the standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	for _, r := range l.Roots {
		if r.Prefix == "" {
			// GOPATH-style root (the analysistest harness): any import path
			// with a matching directory under Dir resolves there; everything
			// else falls through to the standard-library importer.
			if l.fixtureDirExists(r.Dir, path) {
				return filepath.Join(r.Dir, filepath.FromSlash(path)), true
			}
			continue
		}
		if path == r.Prefix {
			return r.Dir, true
		}
		if rest, found := strings.CutPrefix(path, r.Prefix+"/"); found {
			return filepath.Join(r.Dir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

func (l *Loader) fixtureDirExists(root, path string) bool {
	st, err := os.Stat(filepath.Join(root, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

// Import implements types.Importer so module-internal dependencies resolve
// recursively through the Loader itself.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the given import path.
func (l *Loader) Load(path string) (*LoadedPackage, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle guard
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %q is outside every loader root", path)
	}
	p, err := l.loadDir(path, dir)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDir loads the package in dir under the given import path without
// consulting Roots (used by the cmd/cmosvet walk, which discovers
// directories first). With IncludeTests, the directory's external test
// package, if it has one, follows under path+"_test": it is type-checked
// after the package it tests, which it may import.
func (l *Loader) LoadDir(path, dir string) ([]*LoadedPackage, error) {
	p := l.pkgs[path]
	if p == nil {
		var err error
		if p, err = l.loadDir(path, dir); err != nil {
			return nil, err
		}
		l.pkgs[path] = p
	}
	if len(p.xtestFiles) == 0 {
		return []*LoadedPackage{p}, nil
	}
	x, err := l.check(path+"_test", p.xtestFiles)
	if err != nil {
		return nil, err
	}
	return []*LoadedPackage{p, x}, nil
}

func (l *Loader) loadDir(path, dir string) (*LoadedPackage, error) {
	names, err := goFilesIn(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// Parse in parallel: token.FileSet is safe for concurrent AddFile, and
	// parsing dominates load time once the standard library's type info is
	// memoized. Order is preserved by index so file lists stay name-sorted.
	parsed := make([]*ast.File, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			parsed[i], errs[i] = parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		}(i, name)
	}
	wg.Wait()
	var files, xtestFiles []*ast.File
	for i, f := range parsed {
		if errs[i] != nil {
			return nil, errs[i]
		}
		// Never mix an external test package ("foo_test") into "foo".
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtestFiles = append(xtestFiles, f)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: only external-test Go files in %s", dir)
	}
	p, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	p.xtestFiles = xtestFiles
	return p, nil
}

// check type-checks one package's parsed files under the given import path.
func (l *Loader) check(path string, files []*ast.File) (*LoadedPackage, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &LoadedPackage{Path: path, Files: files, Types: pkg, Info: info, Fset: l.Fset}, nil
}

// goFilesIn lists the buildable Go file names of one directory in stable
// order, applying the active build constraints (//go:build lines and
// GOOS/GOARCH file suffixes) through go/build, so a linux-only loader never
// parses file_windows.go.
func goFilesIn(dir string, includeTests bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, "_") || strings.HasPrefix(n, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, n); err != nil || !match {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// PackageDirs walks root and returns every directory holding buildable Go
// files, skipping hidden and underscore-prefixed directories, testdata
// fixture trees and vendored source. This is the "./..." expansion shared by
// the cmd/cmosvet package walk and the loader tests.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFilesIn(p, true)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	return dirs, err
}

// PackageFacts implements FactProvider over the loader's packages, computing
// and memoizing each package's facts on first request. Unknown paths (the
// standard library, unresolvable fixtures) return nil. The method is
// mutex-guarded so analyzers over one loaded package may run concurrently;
// loading itself (Load/LoadDir from the driver loop) must stay sequential.
func (l *Loader) PackageFacts(path string) PkgFacts {
	l.factsMu.Lock()
	defer l.factsMu.Unlock()
	if l.facts == nil {
		l.facts = make(map[string]PkgFacts)
	}
	if f, ok := l.facts[path]; ok {
		return f
	}
	l.facts[path] = PkgFacts{} // cycle guard: facts of an in-flight load resolve empty
	p := l.pkgs[path]
	if p == nil {
		if _, ok := l.dirFor(path); ok {
			p, _ = l.Load(path)
		}
	}
	var f PkgFacts
	if p != nil {
		f = ComputePkgFacts(p)
	}
	l.facts[path] = f
	return f
}

// Analyze runs one analyzer over one loaded package. facts supplies
// cross-package function facts; nil is valid (the flow-aware analyzers then
// treat every callee as unknown).
func Analyze(a *Analyzer, p *LoadedPackage, facts FactProvider) ([]Diagnostic, error) {
	pass := NewPass(a, p.Fset, p.Files, p.Types, p.Info)
	pass.Facts = facts
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, p.Path, err)
	}
	return pass.Diagnostics(), nil
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Root maps an import-path prefix to the directory tree holding its source:
// {"cmosopt", "/repo"} resolves "cmosopt/internal/eval" to
// /repo/internal/eval. A fixture tree uses a root with prefix "", so every
// non-standard-library path resolves GOPATH-style under testdata.
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
// export data (lookupStd). It memoizes by import path, so each package of a
// run is read once.
type Loader struct {
	Fset *token.FileSet
	// Roots are tried in order; the first prefix match wins.
	Roots []Root
	// IncludeTests adds in-package *_test.go files to each loaded package;
	// LoadDir then also returns the directory's external test package
	// ("package foo_test"), which is never mixed into the package it tests.
	IncludeTests bool

	std  types.Importer
	pkgs map[string]*LoadedPackage
}

// NewLoader returns a Loader over the given roots.
func NewLoader(roots ...Root) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:  fset,
		Roots: roots,
		std:   importer.ForCompiler(fset, "gc", lookupStd),
		pkgs:  make(map[string]*LoadedPackage),
	}
}

// stdExports maps every standard-library package that a package of this
// module or one of its tests imports, directly or not, to its export data
// file. One go list call names that closure, which builds nothing, and one
// go list -export call over exactly those packages builds what the go
// command's cache lacks of them, and no package of the module. The loaders
// of one test binary share the map.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-e", "-deps", "-test",
		"-f", "{{if .Standard}}{{.ImportPath}}{{end}}", "cmosopt/...").Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: listing the standard library's closure: %w", err)
	}
	paths := strings.Fields(string(out))
	slices.Sort(paths)
	paths = slices.Compact(paths)
	out, err = exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: listing the standard library's export data: %w", err)
	}
	files := make(map[string]string, len(paths))
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			files[path] = file
		}
	}
	return files, nil
})

// lookupStd opens a standard-library package's export data for the gc
// importer. A package outside stdExports (perfbench's runtime/metrics is
// the one the module's loads reach) takes a go list -export call of its
// own.
func lookupStd(path string) (io.ReadCloser, error) {
	files, err := stdExports()
	if err != nil {
		return nil, err
	}
	file, ok := files[path]
	if !ok {
		out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: export data of %q: %w", path, err)
		}
		file = strings.TrimSpace(string(out))
	}
	return os.Open(file)
}

// dirFor resolves an import path through Roots; ok is false when no root
// prefix matches (i.e. the path belongs to the standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	for _, r := range l.Roots {
		if r.Prefix == "" {
			// GOPATH-style root (a fixture tree): any import path
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
// consulting Roots (used by walks that discover directories first, such as
// loadTree). With IncludeTests, the directory's external test
// package, if it has one, follows under path+"_test": it is type-checked
// after the package it tests, which it may import. Both are memoized, so a
// second walk over the same tree type-checks nothing.
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
	x := l.pkgs[path+"_test"]
	if x == nil {
		var err error
		if x, err = l.check(path+"_test", p.xtestFiles); err != nil {
			return nil, err
		}
		l.pkgs[path+"_test"] = x
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
// fixture trees and vendored source: the "./..." expansion of loadTree.
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

func loaderRoot(t *testing.T, elem ...string) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join(append([]string{"testdata", "loader"}, elem...)...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func hasSymbol(p *LoadedPackage, name string) bool {
	return p.Types.Scope().Lookup(name) != nil
}

func TestLoaderBuildConstraints(t *testing.T) {
	l := NewLoader(Root{Prefix: "", Dir: loaderRoot(t, "src")})
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
	l := NewLoader(Root{Prefix: "", Dir: loaderRoot(t, "src")})
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
	l := NewLoader(Root{Prefix: "", Dir: loaderRoot(t, "src")})
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
	dirs, err := PackageDirs(root)
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

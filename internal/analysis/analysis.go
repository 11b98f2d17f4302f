// Package analysis is a minimal, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis, plus the cmosvet analyzers. Each
// one keeps its place by catching a bug that go test ./... misses, shown by
// a mutant of real code in its fixture tree (DESIGN.md §10):
//
//   - determinism (determinism.go): no wall-clock read in the deterministic
//     packages, where a time budget changes results only on slow runs;
//   - obswriteonly (obswriteonly.go): instrumentation is write-only outside
//     the observability and tool layers, so no obs read can steer a long
//     run, which no test is;
//
// and two flow-aware analyzers over a per-function CFG (cfg.go), a generic
// forward dataflow fixpoint (dataflow.go) and cross-package function facts
// (facts.go):
//
//   - ctxpoll (ctxpoll.go): candidate loops that reach engine evaluation
//     poll Spec.Ctx on every iteration path — the PR 8 cancellation
//     invariant, for the loops no test cancels;
//   - locksafe (locksafe.go): every sync.Mutex/RWMutex Lock is released on
//     all exit paths, and no FlushObs/blocking send/engine evaluation runs
//     under a held lock — the discipline of the observability registry and
//     the service's shared tables.
//
// The x/tools module is deliberately not vendored (this module has zero
// dependencies); the subset reimplemented here — Analyzer, Pass, Diagnostic,
// a loader (loader.go) that type-checks the module from source and the
// standard library from the go command's export data, and an
// analysistest-style fixture runner (analysistest/) — is small and uses only
// the standard library's go/ast, go/types, go/parser and go/importer.
// cmd/cmosvet drives it over the module.
//
// # Suppression
//
// A finding can be waived at a site whose violation is deliberate and
// documented with a line comment
//
//	//cmosvet:allow <analyzer> — <reason>
//
// on the flagged line, or on its own line directly above the annotated
// statement or declaration — in which case it binds to that node's source
// span (a directive above a declaration covers exactly that declaration,
// never the rest of the file). The reason is mandatory by convention
// (reviewed, not machine-checked): the allow comment is the audit trail for
// why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	Name string // short lower-case identifier, used in diagnostics and allow comments
	Doc  string // one-paragraph description of the enforced invariant
	Run  func(*Pass) error
}

// Pass holds the inputs of one analyzer run over one package and collects
// its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // package syntax, in file-name order
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts supplies cross-package function facts to ctxpoll; nil disables
	// fact lookups (everything resolves unknown).
	Facts FactProvider

	diagnostics []Diagnostic
	allow       map[string][]allowDirective // filename → directives
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

type allowDirective struct {
	line     int // the directive's own line (trailing-comment matches)
	from, to int // the annotated node's line span (standalone directives)
	analyzer string
}

var allowRx = regexp.MustCompile(`^//\s*cmosvet:allow\s+([a-z]+)`)

// NewPass assembles a Pass and indexes the //cmosvet:allow directives of the
// package's files, binding each standalone directive to the span of the
// statement or declaration it annotates (see bindAllowSpans).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		allow:     make(map[string][]allowDirective),
	}
	for _, f := range files {
		var ds []allowDirective
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				ds = append(ds, allowDirective{line: pos.Line, analyzer: m[1]})
			}
		}
		if len(ds) == 0 {
			continue
		}
		bindAllowSpans(fset, f, ds)
		name := fset.Position(f.Pos()).Filename
		p.allow[name] = append(p.allow[name], ds...)
	}
	return p
}

// bindAllowSpans resolves each directive to the line span it suppresses. A
// directive trailing code keeps matching its own line only. A directive on
// its own line binds to the next statement/declaration below it — skipping
// further comment lines, so stacked directives all reach the same node — and
// covers that node's whole source span. This is what scopes an allow on a
// declaration to exactly that declaration instead of leaking further down
// the file. With nothing to bind to (end of file), the legacy
// "line directly above" behavior remains.
func bindAllowSpans(fset *token.FileSet, f *ast.File, ds []allowDirective) {
	// Outermost node starting on each line (ast.Inspect is pre-order, so the
	// first node seen for a line is the outermost) and its end line.
	starts := map[int]int{}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.File, *ast.CommentGroup, *ast.Comment:
			// Comments are not anchors (a doc-comment line must not read as
			// code, or a directive inside one would bind to itself).
			return true
		}
		l := fset.Position(n.Pos()).Line
		if _, seen := starts[l]; !seen {
			starts[l] = fset.Position(n.End()).Line
		}
		return true
	})
	// Lines occupied by comments, so stacked directives skip over each other.
	commentLines := map[int]bool{}
	for _, cg := range f.Comments {
		for l := fset.Position(cg.Pos()).Line; l <= fset.Position(cg.End()).Line; l++ {
			commentLines[l] = true
		}
	}
	lastLine := fset.Position(f.End()).Line
	for i := range ds {
		d := &ds[i]
		d.from, d.to = d.line+1, d.line+1 // legacy fallback: line directly above
		if _, codeHere := starts[d.line]; codeHere {
			// Trailing comment: the node on this line may span many lines,
			// but a trailing allow keeps its tight own-line scope.
			d.from, d.to = d.line, d.line
			continue
		}
		for l := d.line + 1; l <= lastLine; l++ {
			if end, ok := starts[l]; ok {
				d.from, d.to = l, end
				break
			}
			if !commentLines[l] {
				break // blank or non-anchoring line: directive dangles
			}
		}
	}
}

// Reportf records a diagnostic at pos unless an allow directive for this
// analyzer covers it: a directive on the same line, or one whose bound node
// span contains the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, d := range p.allow[position.Filename] {
		if d.analyzer != p.Analyzer.Name {
			continue
		}
		if d.line == position.Line || (position.Line >= d.from && position.Line <= d.to) {
			return
		}
	}
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings ordered by (file, line, column, analyzer)
// — the byte-stable order every cmosvet output mode preserves.
func (p *Pass) Diagnostics() []Diagnostic {
	SortDiagnostics(p.diagnostics)
	return p.diagnostics
}

// SortDiagnostics orders findings by (file, line, column, analyzer, message)
// so merged multi-analyzer output is byte-stable across runs and diff-able
// in CI.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}

// All returns the cmosvet analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, ObsWriteOnly, CtxPoll, LockSafe}
}

// ByName returns the named analyzers from the suite ("" or "all" → all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}

// --- shared AST/type helpers used by the analyzers ---

// isTestFile reports whether pos lies in a *_test.go file.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pkgFunc resolves a call expression to (package path, function name) when
// the callee is a selector on an imported package (fmt.Println → "fmt",
// "Println"). The second result is false for method calls, local calls and
// non-selector callees.
func (p *Pass) pkgFunc(call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := p.TypesInfo.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// pathHasSuffix reports whether the package path is exactly suffix or ends
// with "/"+suffix (so "internal/eval" matches both the real module path and
// fixture paths).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// normalizePkgPath maps an external test package ("p_test", as LoadDir
// names it) to the package it tests, so scope rules apply to both alike.
func normalizePkgPath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

// pathIn reports whether path matches any of the given suffixes.
func pathIn(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

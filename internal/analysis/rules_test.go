package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The rules are the repository's invariants that no test run can show
// broken, because they bite only on a slow or long run. Each one
// keeps its place while it flags a behaviour-changing mutant of real code
// that go test ./... passes (DESIGN.md §10); that mutant is seeded in its
// fixture tree, testdata/<rule>/src, which its own test loads.
var rules = []rule{
	{"determinism", checkDeterminism},
	{"obswriteonly", checkObsWriteOnly},
}

// A rule checks one loaded package. Every rule skips _test.go files.
type rule struct {
	name  string
	check func(*LoadedPackage) []finding
}

// A finding is one rule's report.
type finding struct {
	pos token.Position
	fn  string // the enclosing declaration, as declKey names it ("" at package level)
	msg string
}

// wallClockReads are the functions of the deterministic packages that read
// the wall clock, keyed as declKey names them. Each reading times work for
// an obs histogram or for worker utilization, and nothing reads either back
// into a result or into scheduling. An entry whose function reads no clock
// any more fails TestInvariants, so the list only shrinks.
var wallClockReads = []string{
	"parallel.For",            // lane and pool utilization
	"eval.Engine.WidthDelays", // eval.full_sweep_ns
}

// TestInvariants runs every rule over every package of the module and of
// perfbench, on TestReachable's load, and fails on any finding that
// wallClockReads does not hold and on any entry of that list that holds
// none.
func TestInvariants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	_, pkgs := loadTree(t, "cmosopt", root)
	held := map[string]bool{}
	for _, p := range pkgs {
		for _, r := range rules {
			for _, f := range r.check(p) {
				if r.name == "determinism" && slices.Contains(wallClockReads, f.fn) {
					held[f.fn] = true
					continue
				}
				t.Errorf("%s: %s: %s", f.pos, r.name, f.msg)
			}
		}
	}
	for _, fn := range wallClockReads {
		if !held[fn] {
			t.Errorf("wallClockReads entry %s reads no wall clock: drop it", fn)
		}
	}
}

// checkSeeded runs one rule over packages of its fixture tree,
// testdata/<name>/src, and requires exactly the findings that the tree's
// `// want` comments name: the seeded violation must be flagged, and a near
// miss must not be. A want comment holds one or more backquoted regular
// expressions, each matching one finding's message on that line.
func checkSeeded(t *testing.T, name string, check func(*LoadedPackage) []finding, pkgPaths ...string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", name, "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(Root{Dir: src})
	l.IncludeTests = true
	for _, path := range pkgPaths {
		p, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		wants := wantComments(t, p)
		for _, f := range check(p) {
			at := fmt.Sprintf("%s:%d", f.pos.Filename, f.pos.Line)
			j := slices.IndexFunc(wants[at], func(rx *regexp.Regexp) bool { return rx.MatchString(f.msg) })
			if j < 0 {
				t.Errorf("%s: unexpected finding: %s", f.pos, f.msg)
				continue
			}
			wants[at] = slices.Delete(wants[at], j, j+1)
		}
		for at, rxs := range wants {
			for _, rx := range rxs {
				t.Errorf("%s: no finding matches %q", at, rx)
			}
		}
	}
}

var wantRx = regexp.MustCompile("// want((?:\\s+`[^`]*`)+)")

// wantComments reads the expected findings of one fixture package, keyed by
// "file:line".
func wantComments(t *testing.T, p *LoadedPackage) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			// Split on the backquotes: the odd pieces are the expressions.
			for k, arg := range strings.Split(m[1], "`") {
				if k%2 == 1 {
					at := fmt.Sprintf("%s:%d", name, i+1)
					wants[at] = append(wants[at], regexp.MustCompile(arg))
				}
			}
		}
	}
	return wants
}

// reporter collects one package's findings, each under the declaration it
// sits in.
type reporter struct {
	p        *LoadedPackage
	fn       string
	findings []finding
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	r.findings = append(r.findings, finding{r.p.Fset.Position(pos), r.fn, fmt.Sprintf(format, args...)})
}

// eachDecl calls visit with every top-level declaration of p's non-test
// files, the reporter's fn set to the declaration's key.
func eachDecl(p *LoadedPackage, visit func(r *reporter, d ast.Decl)) []finding {
	r := &reporter{p: p}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			r.fn = ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				r.fn = declKey(p.Types.Name(), fd)
			}
			visit(r, d)
		}
	}
	return r.findings
}

// declKey names a function declaration "pkg.Func", or "pkg.Type.Method" for
// a method, as TestReachable's allowlist does.
func declKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
			return pkg + "." + tn + "." + fd.Name.Name
		}
	}
	return pkg + "." + fd.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// pkgFunc resolves a call expression to (package path, function name) when
// the callee is a selector on an imported package (fmt.Println → "fmt",
// "Println"). The second result is false for method calls, local calls and
// non-selector callees.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodOn resolves a method call on a named type or a pointer to one to
// (receiver package path, receiver type name, method name).
func methodOn(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return "", "", "", false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name, true
}

// inPkgs reports whether a package path is exactly one of the suffixes or
// ends with "/" and one, so "internal/eval" matches both the module's path
// and a fixture's.
func inPkgs(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

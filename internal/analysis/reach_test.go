package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cmosopt/internal/analysis"
)

// This file holds the reachability pass behind TestReachable: a
// conservative call graph over type-checked packages, walked from a set of
// root functions. It is test code only; the production tree carries no
// flag or entry point for it.
//
// The graph is built from references, not from calls alone. Any use of a
// function or method inside a declaration's body (closures included) is an
// edge, so method values, method expressions and functions passed as values
// count as calls. Three rules widen it where static references run out:
//
//   - an interface method referenced anywhere reaches every concrete method
//     of that name;
//   - a concrete value converted to a standard-library interface reaches
//     the methods of that interface it implements (sort.Sort reaches Len,
//     Less and Swap; types.Config{Importer: l} reaches Import);
//   - a concrete value converted to any interface reaches the methods of
//     stdAsserted it implements, which the standard library finds by type
//     assertion (fmt asks for String and Error, go/types for ImportFrom).

// stdAsserted names, by package path and type name, the standard-library
// interfaces that standard-library code looks for by dynamic type assertion
// on values it is handed; "" is the universe scope.
var stdAsserted = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"fmt", "GoStringer"},
	{"fmt", "Formatter"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"go/types", "ImporterFrom"},
	{"io", "ReaderFrom"},
	{"io", "WriterTo"},
}

// reachNode is one declared function or method, or one package's
// initialization (its init functions and package-level var initializers).
type reachNode struct {
	fn   *types.Func // nil for a package-initialization node
	key  string      // "pkg.Func" or "pkg.Type.Method"; empty for an init node
	pos  token.Pos
	test bool // declared in a _test.go file
	pkg  *types.Package

	refs  []*types.Func // concrete functions and methods the body references
	names []string      // interface methods the body references, by name
	convs []reachConv   // concrete values the body converts to an interface
}

type reachConv struct {
	src   types.Type
	iface *types.Interface
}

// reachGraph is the call graph over a set of loaded packages.
type reachGraph struct {
	fset    *token.FileSet
	funcs   map[*types.Func]*reachNode
	byName  map[string][]*types.Func // concrete methods by name
	inits   map[string]*reachNode    // by package path: non-test init functions and var initializers
	imports map[string][]string      // by package path: the imports of its non-test files
	local   map[*types.Package]bool  // packages loaded from source
	asserts []*types.Interface       // stdAsserted, as far as the loaded packages import them
}

// newReachGraph scans every declaration of pkgs. Test files are scanned
// too, so tests can be walked from, but they never contribute roots.
func newReachGraph(fset *token.FileSet, pkgs []*analysis.LoadedPackage) *reachGraph {
	g := &reachGraph{
		fset:    fset,
		funcs:   make(map[*types.Func]*reachNode),
		byName:  make(map[string][]*types.Func),
		inits:   make(map[string]*reachNode),
		imports: make(map[string][]string),
		local:   make(map[*types.Package]bool),
	}
	for _, p := range pkgs {
		g.local[p.Types] = true
	}
	for _, p := range pkgs {
		g.scanPackage(p)
	}
	g.asserts = lookupAsserted(pkgs)
	return g
}

// lookupAsserted resolves stdAsserted through the import graph of pkgs; an
// interface whose package nothing imports cannot be asserted to.
func lookupAsserted(pkgs []*analysis.LoadedPackage) []*types.Interface {
	byPath := make(map[string]*types.Package)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if byPath[p.Path()] != nil {
			return
		}
		byPath[p.Path()] = p
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	var out []*types.Interface
	for _, a := range stdAsserted {
		scope := types.Universe
		if a[0] != "" {
			p := byPath[a[0]]
			if p == nil {
				continue
			}
			scope = p.Scope()
		}
		if obj := scope.Lookup(a[1]); obj != nil {
			out = append(out, obj.Type().Underlying().(*types.Interface))
		}
	}
	return out
}

func (g *reachGraph) scanPackage(p *analysis.LoadedPackage) {
	init := &reachNode{pkg: p.Types}
	g.inits[p.Path] = init
	for _, f := range p.Files {
		test := strings.HasSuffix(g.fset.Position(f.Pos()).Filename, "_test.go")
		if !test {
			for _, imp := range f.Imports {
				g.imports[p.Path] = append(g.imports[p.Path], strings.Trim(imp.Path.Value, `"`))
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := p.Info.Defs[d.Name].(*types.Func)
				n := init
				if d.Recv != nil || d.Name.Name != "init" {
					n = &reachNode{fn: fn, key: funcKey(fn), pos: d.Pos(), test: test, pkg: p.Types}
					g.funcs[fn] = n
					if d.Recv != nil {
						g.byName[fn.Name()] = append(g.byName[fn.Name()], fn)
					}
				} else if test {
					continue // a test file's init is not part of the program
				}
				if d.Body != nil {
					g.scanBody(n, p.Info, d.Body, fn.Type().(*types.Signature))
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR || test {
					continue
				}
				for _, s := range d.Specs {
					g.scanBody(init, p.Info, s, nil)
				}
			}
		}
	}
}

// funcKey names fn as the allowlist does: "pkg.Func" or "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Name() + "." + name
}

// scanBody records the references and interface conversions of one
// declaration's body into n; sig is the signature whose results a return
// statement converts to (nil outside a function).
func (g *reachGraph) scanBody(n *reachNode, info *types.Info, body ast.Node, sig *types.Signature) {
	conv := func(dst types.Type, e ast.Expr) {
		if dst == nil {
			return
		}
		iface, ok := dst.Underlying().(*types.Interface)
		if !ok {
			return
		}
		src := info.TypeOf(e)
		if src == nil || types.IsInterface(src) {
			return
		}
		if _, basic := src.(*types.Basic); basic {
			return
		}
		n.convs = append(n.convs, reachConv{src, iface})
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			g.scanBody(n, info, x.Body, info.TypeOf(x).(*types.Signature))
			return false
		case *ast.Ident:
			fn, ok := info.Uses[x].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				n.names = append(n.names, fn.Name())
			} else {
				n.refs = append(n.refs, fn.Origin())
			}
		case *ast.CallExpr:
			if tv := info.Types[x.Fun]; tv.IsType() {
				if len(x.Args) == 1 {
					conv(tv.Type, x.Args[0])
				}
				return true
			}
			callSig, ok := info.TypeOf(x.Fun).Underlying().(*types.Signature)
			if !ok {
				return true
			}
			params := callSig.Params()
			for i, a := range x.Args {
				switch {
				case callSig.Variadic() && i >= params.Len()-1 && !x.Ellipsis.IsValid():
					conv(params.At(params.Len()-1).Type().(*types.Slice).Elem(), a)
				case i < params.Len():
					conv(params.At(i).Type(), a)
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					conv(info.TypeOf(x.Lhs[i]), x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				for _, v := range x.Values {
					conv(info.TypeOf(x.Type), v)
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(x.Results) {
				for i, r := range x.Results {
					conv(sig.Results().At(i).Type(), r)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(x.Chan).Underlying().(*types.Chan); ok {
				conv(ch.Elem(), x.Value)
			}
		case *ast.CompositeLit:
			g.scanCompositeLit(info, x, conv)
		}
		return true
	})
}

// scanCompositeLit reports the elements of lit that convert to an
// interface-typed field, element or key.
func (g *reachGraph) scanCompositeLit(info *types.Info, lit *ast.CompositeLit, conv func(types.Type, ast.Expr)) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem() // &T{...} elided inside an outer literal
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						conv(v.Type(), kv.Value)
					}
				}
			} else if i < u.NumFields() {
				conv(u.Field(i).Type(), e)
			}
		case *types.Slice, *types.Array:
			elem := u.(interface{ Elem() types.Type }).Elem()
			if keyed {
				conv(elem, kv.Value)
			} else {
				conv(elem, e)
			}
		case *types.Map:
			if keyed {
				conv(u.Key(), kv.Key)
				conv(u.Elem(), kv.Value)
			}
		}
	}
}

// roots returns the entry points of the main packages mains: each main
// function, and the initialization of every package it imports, itself
// included.
func (g *reachGraph) roots(mains []*analysis.LoadedPackage) []*reachNode {
	var out []*reachNode
	seen := make(map[string]bool)
	var imp func(path string)
	imp = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		if n := g.inits[path]; n != nil {
			out = append(out, n)
		}
		for _, q := range g.imports[path] {
			imp(q)
		}
	}
	for _, p := range mains {
		if fn, ok := p.Types.Scope().Lookup("main").(*types.Func); ok {
			out = append(out, g.funcs[fn])
		}
		imp(p.Path)
	}
	return out
}

// walk returns every node reachable from roots.
func (g *reachGraph) walk(roots []*reachNode) map[*reachNode]bool {
	seen := make(map[*reachNode]bool)
	names := make(map[string]bool)
	var work []*reachNode
	add := func(n *reachNode) {
		if n != nil && !seen[n] {
			seen[n] = true
			work = append(work, n)
		}
	}
	visit := func(fn *types.Func) { add(g.funcs[fn]) }
	for _, n := range roots {
		add(n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, fn := range n.refs {
			visit(fn)
		}
		for _, name := range n.names {
			if !names[name] {
				names[name] = true
				for _, fn := range g.byName[name] {
					visit(fn)
				}
			}
		}
		for _, c := range n.convs {
			g.converted(c, visit)
		}
	}
	return seen
}

// converted visits the methods the standard library may call on a value
// of type c.src once it is held in an interface of type c.iface.
func (g *reachGraph) converted(c reachConv, visit func(*types.Func)) {
	methodsOf := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if m.Pkg() != nil && g.local[m.Pkg()] {
				continue // the name rule covers calls made from analyzed code
			}
			if sel := types.NewMethodSet(c.src).Lookup(m.Pkg(), m.Name()); sel != nil {
				visit(sel.Obj().(*types.Func).Origin())
			}
		}
	}
	methodsOf(c.iface)
	for _, a := range g.asserts {
		if types.Implements(c.src, a) {
			methodsOf(a)
		}
	}
}

// unreachable lists the non-test functions of packages under prefix that
// reached does not hold, sorted by key.
func (g *reachGraph) unreachable(reached map[*reachNode]bool, prefix string) []*reachNode {
	var out []*reachNode
	for _, n := range g.funcs {
		if !n.test && !reached[n] && (n.pkg.Path() == prefix || strings.HasPrefix(n.pkg.Path(), prefix+"/")) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// roadmapItem returns the top-level ROADMAP item whose bold title is title,
// up to the next item or section; "" when there is none.
func roadmapItem(roadmap, title string) string {
	start := strings.Index(roadmap, "\n- **"+title)
	if title == "" || start < 0 {
		return ""
	}
	item := roadmap[start+1:]
	for _, next := range []string{"\n- **", "\n#"} {
		if i := strings.Index(item[1:], next); i >= 0 {
			item = item[:i+1]
		}
	}
	return item
}

// reachEntry is one allowlisted unreachable function, method or package.
type reachEntry struct {
	// Name is "pkg.Func", "pkg.Type.Method", or a package name for every
	// function of that package.
	Name string
	// Category is "oracle" (a test checks production output against it),
	// "harness" (tests in more than one package call it) or "deferred"
	// (an open ROADMAP item decides its fate).
	Category string
	// Ref is the test that uses it, or for "deferred" the bold title of the
	// ROADMAP item that decides it; that item must name Name in backquotes.
	Ref string
}

func (e reachEntry) covers(key string) bool {
	return key == e.Name || strings.HasPrefix(key, e.Name+".")
}

// checkReach returns one problem per unreachable function that no entry
// covers, and one per entry that is stale: it covers no unreachable
// function, names a test that does not exist or does not reach what it
// covers, or names a ROADMAP item that does not name it.
func checkReach(g *reachGraph, reached map[*reachNode]bool, dead []*reachNode, allow []reachEntry, roadmap string) []string {
	var problems []string
	for _, n := range dead {
		listed := false
		for _, e := range allow {
			listed = listed || e.covers(n.key)
		}
		if !listed {
			pos := g.fset.Position(n.pos)
			problems = append(problems, fmt.Sprintf("%s:%d: %s is reachable from no main: delete it, move it into its package's tests, or list it",
				pos.Filename, pos.Line, n.key))
		}
	}
	tests := make(map[string][]*reachNode)
	for _, n := range g.funcs {
		if n.test && n.fn.Type().(*types.Signature).Recv() == nil {
			tests[n.fn.Name()] = append(tests[n.fn.Name()], n)
		}
	}
	for _, e := range allow {
		var covered []*reachNode
		for _, n := range dead {
			if e.covers(n.key) {
				covered = append(covered, n)
			}
		}
		if len(covered) == 0 {
			state := "no longer exists"
			for n := range reached {
				if n.key != "" && e.covers(n.key) {
					state = "is reachable"
					break
				}
			}
			problems = append(problems, fmt.Sprintf("allowlist entry %s %s: drop it", e.Name, state))
			continue
		}
		switch {
		case e.Category == "deferred":
			if !strings.Contains(roadmapItem(roadmap, e.Ref), "`"+e.Name+"`") {
				problems = append(problems, fmt.Sprintf("allowlist entry %s waits on ROADMAP item %q, which does not name it", e.Name, e.Ref))
			}
		case e.Category != "oracle" && e.Category != "harness":
			problems = append(problems, fmt.Sprintf("allowlist entry %s has category %q; want oracle, harness or deferred", e.Name, e.Category))
		case tests[e.Ref] == nil:
			problems = append(problems, fmt.Sprintf("allowlist entry %s names test %s, which does not exist", e.Name, e.Ref))
		default:
			from := g.walk(tests[e.Ref])
			uses := false
			for _, n := range covered {
				uses = uses || from[n]
			}
			if !uses {
				problems = append(problems, fmt.Sprintf("allowlist entry %s names test %s, which does not refer to it", e.Name, e.Ref))
			}
		}
	}
	return problems
}

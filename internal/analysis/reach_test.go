package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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
//
// The same scan records the struct fields each body reads and writes, for
// the field rule: a field that reached code reads and no reached code
// writes is zero in every run, so whatever it selects runs only under
// tests. Reading is selecting the field (x.f). Writing is any of:
//
//   - a keyed or positional element of a composite literal;
//   - the left side of =, op=, ++ or --, or a range clause's key or value;
//   - taking its address (&x.f);
//   - calling a pointer-receiver method on it or on one of its array
//     elements (x.mu.Lock(), x.slots[i].Add(1));
//   - handing a pointer to its struct, as an interface value, to a function
//     outside the analyzed packages (json.Unmarshal(b, &req) sets every
//     field it can reach).
//
// Storing into x.f.g or x.f[i] writes f too when f holds a struct or an
// array by value; through a pointer, slice or map it does not, since f
// must then have been set elsewhere. Fields are compared by Origin, so a
// write to Box[int].V is a write to Box[T].V. The rule cannot see a
// default: a field a constructor writes counts as written even when no
// caller ever changes it.

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

	refs   []*types.Func // concrete functions and methods the body references
	names  []string      // interface methods the body references, by name
	convs  []reachConv   // concrete values the body converts to an interface
	reads  []*types.Var  // struct fields the body selects, by Origin
	writes []*types.Var  // struct fields the body writes, by Origin
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
	fields  map[*types.Var]string    // fields of the named structs declared in pkgs, by key
}

// newReachGraph scans every declaration of pkgs. Test files are scanned
// too, so tests can be walked from, but they never contribute roots.
func newReachGraph(fset *token.FileSet, pkgs []*LoadedPackage) *reachGraph {
	g := &reachGraph{
		fset:    fset,
		funcs:   make(map[*types.Func]*reachNode),
		byName:  make(map[string][]*types.Func),
		inits:   make(map[string]*reachNode),
		imports: make(map[string][]string),
		local:   make(map[*types.Package]bool),
		fields:  make(map[*types.Var]string),
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
func lookupAsserted(pkgs []*LoadedPackage) []*types.Interface {
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

func (g *reachGraph) scanPackage(p *LoadedPackage) {
	init := &reachNode{pkg: p.Types}
	g.inits[p.Path] = init
	for _, obj := range p.Info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					g.fields[st.Field(i)] = p.Types.Name() + "." + tn.Name() + "." + st.Field(i).Name()
				}
			}
		}
	}
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
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			switch {
			case sel == nil:
			case sel.Kind() == types.FieldVal:
				n.reads = append(n.reads, sel.Obj().(*types.Var).Origin())
			case sel.Kind() == types.MethodVal && !isPointer(sel.Recv()) &&
				isPointer(sel.Obj().Type().(*types.Signature).Recv().Type()):
				n.store(info, x.X) // the call takes x.X's address
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				n.store(info, x.X)
			}
		case *ast.IncDecStmt:
			n.store(info, x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				n.store(info, x.Key)
				n.store(info, x.Value)
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
			fn := callee(info, x.Fun)
			foreign := fn != nil && fn.Pkg() != nil && !g.local[fn.Pkg()]
			params := callSig.Params()
			for i, a := range x.Args {
				var pt types.Type
				switch {
				case callSig.Variadic() && i >= params.Len()-1 && !x.Ellipsis.IsValid():
					pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
				case i < params.Len():
					pt = params.At(i).Type()
				}
				conv(pt, a)
				// A pointer handed as an interface to code outside the
				// analyzed packages may be decoded into by reflection.
				if ptr, ok := info.TypeOf(a).Underlying().(*types.Pointer); ok && foreign && pt != nil && types.IsInterface(pt) {
					n.storeAll(ptr.Elem(), make(map[types.Type]bool))
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, l := range x.Lhs {
					n.store(info, l)
				}
			}
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
			n.scanCompositeLit(info, x, conv)
		}
		return true
	})
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// callee returns the function or concrete method a call expression names,
// or nil when it calls a func value.
func callee(info *types.Info, fun ast.Expr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// store records the fields that storing through e writes: the field e
// selects, and each field that holds it by value, out through struct
// fields and array elements. It stops at a pointer, slice or map, whose
// contents live apart from the field that refers to them.
func (n *reachNode) store(info *types.Info, e ast.Expr) {
	for e != nil {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			n.writes = append(n.writes, sel.Obj().(*types.Var).Origin())
			if sel.Indirect() {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// storeAll records every field a decoder handed a pointer to t can set:
// the fields of t and, through pointers, slices, arrays, maps and fields,
// of every struct t holds.
func (n *reachNode) storeAll(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			n.writes = append(n.writes, u.Field(i).Origin())
			n.storeAll(u.Field(i).Type(), seen)
		}
	case *types.Pointer, *types.Slice, *types.Array, *types.Map:
		n.storeAll(u.(interface{ Elem() types.Type }).Elem(), seen)
	}
}

// scanCompositeLit records the struct fields lit sets and reports the
// elements that convert to an interface-typed field, element or key.
func (n *reachNode) scanCompositeLit(info *types.Info, lit *ast.CompositeLit, conv func(types.Type, ast.Expr)) {
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
						n.writes = append(n.writes, v.Origin())
						conv(v.Type(), kv.Value)
					}
				}
			} else if i < u.NumFields() {
				n.writes = append(n.writes, u.Field(i).Origin())
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
func (g *reachGraph) roots(mains []*LoadedPackage) []*reachNode {
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

// under reports whether path is prefix or a package below it.
func under(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// unreachable lists the non-test functions of packages under prefix that
// reached does not hold, sorted by key.
func (g *reachGraph) unreachable(reached map[*reachNode]bool, prefix string) []*reachNode {
	var out []*reachNode
	for _, n := range g.funcs {
		if !n.test && !reached[n] && under(n.pkg.Path(), prefix) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// reachField is a struct field the field rule reports.
type reachField struct {
	v   *types.Var
	key string // "pkg.Type.field"
}

// fieldUse returns the struct fields that the reached non-test functions
// read and write.
func fieldUse(reached map[*reachNode]bool) (read, written map[*types.Var]bool) {
	read, written = make(map[*types.Var]bool), make(map[*types.Var]bool)
	for n := range reached {
		if n.test {
			continue
		}
		for _, v := range n.reads {
			read[v] = true
		}
		for _, v := range n.writes {
			written[v] = true
		}
	}
	return read, written
}

// unwritten lists the fields of structs declared in packages under prefix
// that reached code reads and never writes, sorted by key.
func (g *reachGraph) unwritten(reached map[*reachNode]bool, prefix string) []reachField {
	read, written := fieldUse(reached)
	var out []reachField
	for v := range read {
		if !written[v] && under(v.Pkg().Path(), prefix) {
			key := g.fields[v]
			if key == "" {
				key = v.Pkg().Name() + "." + v.Name() // a field of an unnamed struct
			}
			out = append(out, reachField{v, key})
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

// reachEntry is one allowlisted unreachable function, method or package,
// or one allowlisted field that no program writes.
type reachEntry struct {
	// Name is "pkg.Func", "pkg.Type.Method", "pkg.Type.field", or a package
	// name for every function and field of that package. An oracle or
	// harness entry lists only those of them its test reaches or writes.
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

// checkReach returns one problem per unreachable function and per unwritten
// field that no entry lists, and one per entry that is stale: it covers
// neither, names a test that does not exist or does not reach or write what
// it covers, or names a ROADMAP item that does not name it. A deferred entry
// lists everything its name covers; an oracle or harness entry lists only
// the functions its test reaches and the fields its test writes, so a
// package entry cannot shelter what its test never calls.
func checkReach(g *reachGraph, reached map[*reachNode]bool, dead []*reachNode, unset []reachField, allow []reachEntry, roadmap string) []string {
	var problems []string
	tests := make(map[string][]*reachNode)
	for _, n := range g.funcs {
		if n.test && n.fn.Type().(*types.Signature).Recv() == nil {
			tests[n.fn.Name()] = append(tests[n.fn.Name()], n)
		}
	}
	listedFuncs := make(map[*reachNode]bool)
	listedFields := make(map[*types.Var]bool)
	for _, e := range allow {
		var covered []*reachNode
		for _, n := range dead {
			if e.covers(n.key) {
				covered = append(covered, n)
			}
		}
		fields := make(map[*types.Var]bool)
		for _, f := range unset {
			if e.covers(f.key) {
				fields[f.v] = true
			}
		}
		if len(covered) == 0 && len(fields) == 0 {
			problems = append(problems, fmt.Sprintf("allowlist entry %s %s: drop it", e.Name, g.staleState(reached, e)))
			continue
		}
		switch {
		case e.Category == "deferred":
			if !strings.Contains(roadmapItem(roadmap, e.Ref), "`"+e.Name+"`") {
				problems = append(problems, fmt.Sprintf("allowlist entry %s waits on ROADMAP item %q, which does not name it", e.Name, e.Ref))
			}
			for _, n := range covered {
				listedFuncs[n] = true
			}
			for v := range fields {
				listedFields[v] = true
			}
		case e.Category != "oracle" && e.Category != "harness":
			problems = append(problems, fmt.Sprintf("allowlist entry %s has category %q; want oracle, harness or deferred", e.Name, e.Category))
		case tests[e.Ref] == nil:
			problems = append(problems, fmt.Sprintf("allowlist entry %s names test %s, which does not exist", e.Name, e.Ref))
		default:
			from := g.walk(tests[e.Ref])
			uses := false
			for _, n := range covered {
				if from[n] {
					listedFuncs[n], uses = true, true
				}
			}
			for n := range from {
				for _, v := range n.writes {
					if fields[v] {
						listedFields[v], uses = true, true
					}
				}
			}
			if !uses {
				problems = append(problems, fmt.Sprintf("allowlist entry %s names test %s, which does not refer to it", e.Name, e.Ref))
			}
		}
	}
	var unlisted []string
	for _, n := range dead {
		if !listedFuncs[n] {
			pos := g.fset.Position(n.pos)
			unlisted = append(unlisted, fmt.Sprintf("%s:%d: %s is reachable from no main: delete it, move it into its package's tests, or list it",
				pos.Filename, pos.Line, n.key))
		}
	}
	for _, f := range unset {
		if !listedFields[f.v] {
			pos := g.fset.Position(f.v.Pos())
			unlisted = append(unlisted, fmt.Sprintf("%s:%d: field %s is read by a program and written by none, so it is zero in every run: delete it with the code it selects, set it in a program, or list it",
				pos.Filename, pos.Line, f.key))
		}
	}
	return append(unlisted, problems...)
}

// staleState says why entry e covers nothing the rules report: what it
// names is reachable, is a field a program writes or none reads, or no
// longer exists.
func (g *reachGraph) staleState(reached map[*reachNode]bool, e reachEntry) string {
	for n := range reached {
		if n.key != "" && e.covers(n.key) {
			return "is reachable"
		}
	}
	read, written := fieldUse(reached)
	for v, key := range g.fields {
		switch {
		case key != e.Name:
		case written[v]:
			return "is written by a program"
		case !read[v]:
			return "is read by no program"
		}
	}
	return "no longer exists"
}

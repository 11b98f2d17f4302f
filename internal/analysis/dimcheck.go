package analysis

// dimcheck: dimensional analysis of the model's float surface.
//
// Every physical quantity in this repository — voltages, currents, delays,
// capacitances, energies, powers — travels as a bare float64. dimcheck
// retrofits a units-of-measure discipline onto those floats: declaration
// sites carry //cmosvet:unit annotations (units.go), the lattice of dimension
// vectors lives in dim.go, and this file is the checker that propagates
// dimensions through expressions and flags the operations physics forbids:
//
//   - + and -, += and -=, and the ordered/equality comparisons require both
//     operands to share a dimension (adding joules to watts is the classic
//     energy-vs-power confusion the paper's E·f_c = P identity invites);
//   - * and / compose exponent vectors, so C·V² comes out in joules and a
//     J/s quotient in watts without any annotation at the use site;
//   - math.Pow with a constant exponent scales the base's exponents (and
//     math.Sqrt halves them); a non-constant exponent yields ⊤;
//   - math.Exp/Log/trig demand dimensionless arguments;
//   - calls check annotated parameters and adopt annotated results, with
//     cross-package declarations resolved through the unit tables the
//     loader's package facts carry;
//   - assignments into annotated fields, variables and composite-literal
//     fields must match the declared dimension, and returns must match the
//     declared result dimension.
//
// Dimensions flow through local variables with a forward dataflow fixpoint
// over the per-function CFG, so a value assigned on both arms of an if keeps
// its dimension at the merge and a variable rebound in a loop converges (the
// per-variable chain ⊥ → ~ → exact → ⊤ is finite). The fixpoint runs with
// reporting off; diagnostics come from one deterministic second pass per
// reachable block, so a block re-visited during iteration never reports
// twice.
//
// Missing information never manufactures findings: unannotated values are ⊤,
// which is compatible with everything, and literals are ~ (polymorphic
// constants), so `vdd > 3.3` and `0.5 * cap` stay silent while `energy +
// power` and `delay < vdd` flag. Function-literal bodies are not analyzed
// (the CFG deliberately excludes them); a closure's value is ⊤.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// DimCheck is the dimensional-analysis pass.
var DimCheck = &Analyzer{
	Name: "dimcheck",
	Doc: "type-check physical units (V, A, s, F, W, J, Hz, …) across the model: " +
		"declaration sites annotated //cmosvet:unit seed a dimension lattice that " +
		"+/-/comparisons must preserve and */÷ compose; mismatches such as " +
		"energy+power or delay<voltage are reported",
	Run: runDimCheck,
}

func runDimCheck(pass *Pass) error {
	dc := &dimChecker{
		pass:     pass,
		units:    collectUnits(pass.Files, pass.TypesInfo),
		selfPath: normalizePkgPath(pass.Pkg.Path()),
		cache:    map[string]cachedDim{},
	}
	// Malformed annotations are findings themselves: a typo in a unit must
	// fail the gate, not silently widen it.
	for _, e := range dc.units.errs {
		pass.Reportf(e.pos, "%s", e.msg)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					dc.checkFunc(d)
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					dc.checkPkgVar(d)
				}
			}
		}
	}
	return nil
}

// cachedDim memoizes one cross-package fact lookup (including misses).
type cachedDim struct {
	d  Dim
	ok bool
}

// dimChecker is the per-package state shared by every function's run.
type dimChecker struct {
	pass     *Pass
	units    *unitTable
	selfPath string
	cache    map[string]cachedDim
}

// lookup resolves a declaration key's dimension: the in-package annotation
// table for the package under analysis, the units fact table for everything
// else.
func (dc *dimChecker) lookup(path, key string) (Dim, bool) {
	if normalizePkgPath(path) == dc.selfPath {
		d, ok := dc.units.decls[key]
		return d, ok
	}
	ck := path + "\x00" + key
	if c, ok := dc.cache[ck]; ok {
		return c.d, c.ok
	}
	d, ok := dc.pass.unitFact(path, key)
	dc.cache[ck] = cachedDim{d, ok}
	return d, ok
}

// dimEnv is the dataflow state: the dimension of each tracked local. A
// missing variable is ⊥ (never assigned on this path yet).
type dimEnv map[*types.Var]Dim

func cloneEnv(env dimEnv) dimEnv {
	out := make(dimEnv, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// joinEnv is the pointwise lattice join (the Forward meet at merges).
func joinEnv(a, b dimEnv) dimEnv {
	out := make(dimEnv, len(a))
	for k, v := range a {
		out[k] = v.Join(b[k]) // zero Dim is ⊥, the Join identity
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func equalEnv(a, b dimEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		ov, ok := b[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// checkFunc runs the fixpoint over one function body, then reports from the
// converged block-entry states in block order (deterministic output).
func (dc *dimChecker) checkFunc(fd *ast.FuncDecl) {
	fc := &funcChecker{dc: dc, key: declKey(fd)}
	fc.results = dc.resultDimsOf(fd)
	fc.seeds = fc.rangeSeeds(fd)
	cfg := BuildCFG(fd.Body)
	reach := cfg.Reachable()
	transfer := func(b *Block, in dimEnv) dimEnv {
		env := cloneEnv(in)
		for _, n := range b.Nodes {
			fc.node(n, env)
		}
		return env
	}
	in, _ := Forward(cfg, dimEnv{}, transfer, joinEnv, equalEnv)
	fc.report = true
	for _, b := range cfg.Blocks {
		if !reach[b] {
			continue
		}
		transfer(b, in[b])
	}
}

// checkPkgVar checks package-level var initializers against their (and their
// targets') annotations.
func (dc *dimChecker) checkPkgVar(gd *ast.GenDecl) {
	fc := &funcChecker{dc: dc, report: true}
	env := dimEnv{}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		if len(vs.Values) == len(vs.Names) {
			for i, name := range vs.Names {
				fc.define(name, fc.expr(vs.Values[i], env), env)
			}
			continue
		}
		if len(vs.Names) > 1 && len(vs.Values) == 1 {
			dims := fc.resultValues(vs.Values[0], len(vs.Names), env)
			for i, name := range vs.Names {
				fc.define(name, dims[i], env)
			}
		}
	}
}

// resultDimsOf resolves a function's declared result dimensions (⊤ where
// unannotated).
func (dc *dimChecker) resultDimsOf(fd *ast.FuncDecl) []Dim {
	if fd.Type.Results == nil {
		return nil
	}
	key := declKey(fd)
	n := numResults(fd.Type.Results.List)
	out := make([]Dim, n)
	for i := range out {
		out[i] = TopDim()
		k := key + ".return"
		if i > 0 {
			k = fmt.Sprintf("%s.return%d", key, i+1)
		}
		if d, ok := dc.units.decls[k]; ok {
			out[i] = d
		}
	}
	return out
}

// funcChecker evaluates one function's statements and expressions. The same
// instance serves both the silent fixpoint and the reporting pass; report
// gates diagnostics.
type funcChecker struct {
	dc      *dimChecker
	key     string
	results []Dim
	// seeds carries range-statement value variables: the CFG exposes only the
	// ranged expression, not the key/value binding, so a prepass derives the
	// element dimension from statically-resolvable containers.
	seeds  map[*types.Var]Dim
	report bool
}

func (fc *funcChecker) info() *types.Info { return fc.dc.pass.TypesInfo }

func (fc *funcChecker) reportf(pos token.Pos, format string, args ...any) {
	if fc.report {
		fc.dc.pass.Reportf(pos, format, args...)
	}
}

// rangeSeeds pre-binds `for _, v := range x` value variables to x's element
// dimension when x resolves without local state (annotated fields, params,
// package vars). The floatCarrier convention makes a container's dimension
// its element's.
func (fc *funcChecker) rangeSeeds(fd *ast.FuncDecl) map[*types.Var]Dim {
	seeds := map[*types.Var]Dim{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		d := fc.expr(rs.X, dimEnv{})
		if !d.IsExact() {
			return true
		}
		if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
			if v, ok := fc.objVar(id); ok && floatCarrier(v.Type()) {
				seeds[v] = d
			}
		}
		return true
	})
	return seeds
}

func (fc *funcChecker) objVar(id *ast.Ident) (*types.Var, bool) {
	obj := fc.info().Defs[id]
	if obj == nil {
		obj = fc.info().Uses[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// node dispatches one CFG node (a statement, or a bare condition/tag
// expression of a control statement).
func (fc *funcChecker) node(n ast.Node, env dimEnv) {
	switch n := n.(type) {
	case ast.Stmt:
		fc.stmt(n, env)
	case ast.Expr:
		fc.expr(n, env)
	}
}

func (fc *funcChecker) stmt(s ast.Stmt, env dimEnv) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		fc.assign(s, env)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			switch {
			case len(vs.Values) == len(vs.Names):
				for i, name := range vs.Names {
					fc.define(name, fc.expr(vs.Values[i], env), env)
				}
			case len(vs.Values) == 1 && len(vs.Names) > 1:
				dims := fc.resultValues(vs.Values[0], len(vs.Names), env)
				for i, name := range vs.Names {
					fc.define(name, dims[i], env)
				}
			default:
				// var x float64 — the zero value adapts like a literal 0.
				for _, name := range vs.Names {
					fc.define(name, ConstDim(), env)
				}
			}
		}
	case *ast.ReturnStmt:
		fc.returnStmt(s, env)
	case *ast.ExprStmt:
		fc.expr(s.X, env)
	case *ast.IncDecStmt:
		fc.expr(s.X, env)
	case *ast.GoStmt:
		fc.expr(s.Call, env)
	case *ast.DeferStmt:
		fc.expr(s.Call, env)
	case *ast.SendStmt:
		fc.expr(s.Chan, env)
		fc.expr(s.Value, env)
	}
}

func (fc *funcChecker) returnStmt(s *ast.ReturnStmt, env dimEnv) {
	if len(s.Results) == 0 {
		return // naked return: named results were checked at assignment
	}
	if len(s.Results) == 1 && len(fc.results) > 1 {
		dims := fc.resultValues(s.Results[0], len(fc.results), env)
		for i, d := range dims {
			fc.checkResult(s.Results[0].Pos(), i, d)
		}
		return
	}
	for i, r := range s.Results {
		d := fc.expr(r, env)
		if i < len(fc.results) {
			fc.checkResult(r.Pos(), i, d)
		}
	}
}

func (fc *funcChecker) checkResult(pos token.Pos, i int, d Dim) {
	want := fc.results[i]
	if !d.Compatible(want) {
		fc.reportf(pos, "returning %s from %s, whose result is declared %s", d, fc.key, want)
	}
}

func (fc *funcChecker) assign(s *ast.AssignStmt, env dimEnv) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			dims := fc.resultValues(s.Rhs[0], len(s.Lhs), env)
			for i, lhs := range s.Lhs {
				fc.assignTo(lhs, dims[i], env)
			}
			return
		}
		dims := make([]Dim, len(s.Rhs))
		for i, r := range s.Rhs {
			dims[i] = fc.expr(r, env)
		}
		for i, lhs := range s.Lhs {
			if i < len(dims) {
				fc.assignTo(lhs, dims[i], env)
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		l := fc.expr(s.Lhs[0], env)
		r := fc.expr(s.Rhs[0], env)
		var result Dim
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			if !l.Compatible(r) {
				fc.reportf(s.TokPos, "dimension mismatch: %s %s %s", l, s.Tok, r)
			}
			result = addResult(l, r)
		case token.MUL_ASSIGN:
			result = l.Mul(r)
		default:
			result = l.Div(r)
		}
		if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
			fc.define(id, result, env)
			return
		}
		// Field or element target: its own declared dimension is l.
		if !result.Compatible(l) {
			fc.reportf(s.TokPos, "assigning %s to %s, declared %s", result, exprText(s.Lhs[0]), l)
		}
	default:
		for _, r := range s.Rhs {
			fc.expr(r, env)
		}
	}
}

// assignTo binds the value dimension d into an assignment target, checking
// annotated destinations.
func (fc *funcChecker) assignTo(lhs ast.Expr, d Dim, env dimEnv) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		fc.define(l, d, env)
	case *ast.SelectorExpr:
		declared := fc.selectorDim(l, env)
		if !d.Compatible(declared) {
			fc.reportf(lhs.Pos(), "assigning %s to %s, declared %s", d, exprText(lhs), declared)
		}
	case *ast.IndexExpr:
		fc.expr(l.Index, env)
		cur := fc.expr(l.X, env)
		if !d.Compatible(cur) {
			fc.reportf(lhs.Pos(), "assigning %s to %s, whose elements are %s", d, exprText(lhs), cur)
			return
		}
		// Refine an unannotated local container from its stored elements, so
		// `out := make([]float64, n); out[i] = vdd` types out as V.
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok {
			if v, ok := fc.objVar(id); ok {
				if _, annotated := fc.dc.units.objects[v]; !annotated {
					env[v] = addResult(cur, d)
				}
			}
		}
	case *ast.StarExpr:
		fc.expr(l.X, env)
	default:
		fc.expr(lhs, env)
	}
}

// define binds an identifier; annotated variables (params, named results,
// package vars) check the incoming dimension and keep their declared one.
func (fc *funcChecker) define(id *ast.Ident, d Dim, env dimEnv) {
	if id.Name == "_" {
		return
	}
	v, ok := fc.objVar(id)
	if !ok {
		return
	}
	if declared, ok := fc.dc.units.objects[v]; ok {
		if !d.Compatible(declared) {
			fc.reportf(id.Pos(), "assigning %s to %s, declared %s", d, id.Name, declared)
		}
		env[v] = declared
		return
	}
	env[v] = d
}

// addResult is the value of an addition/subtraction (or a min/max-style
// merge) after compatibility was checked: exact information wins over ~ and
// ⊤, mismatched exacts degrade to ⊤.
func addResult(a, b Dim) Dim {
	switch {
	case a.IsBottom():
		return b
	case b.IsBottom():
		return a
	case !a.Compatible(b):
		return TopDim()
	case a.IsConst():
		return b
	case b.IsConst():
		return a
	case a.IsTop():
		return b
	case b.IsTop():
		return a
	default:
		return a
	}
}

// expr computes the dimension of an expression, reporting mismatches inside
// it. Named references resolve before the constant shortcut so an annotated
// package const (ReferenceTempK) keeps its declared dimension.
func (fc *funcChecker) expr(e ast.Expr, env dimEnv) Dim {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fc.expr(e.X, env)
	case *ast.Ident:
		return fc.identDim(e, env)
	case *ast.SelectorExpr:
		return fc.selectorDim(e, env)
	case *ast.BinaryExpr:
		return fc.binary(e, env)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.SUB, token.ADD, token.AND:
			return fc.expr(e.X, env) // -x, +x keep x's dimension; &x its carrier's
		default:
			fc.expr(e.X, env)
			return fc.fallback(e)
		}
	case *ast.CallExpr:
		return fc.call(e, env)
	case *ast.IndexExpr:
		fc.expr(e.Index, env)
		return fc.expr(e.X, env) // container dimension = element dimension
	case *ast.SliceExpr:
		return fc.expr(e.X, env)
	case *ast.StarExpr:
		return fc.expr(e.X, env)
	case *ast.CompositeLit:
		return fc.composite(e, env)
	case *ast.TypeAssertExpr:
		fc.expr(e.X, env)
		return fc.fallback(e)
	case *ast.BasicLit:
		return ConstDim()
	case *ast.FuncLit:
		return TopDim() // closure bodies are outside the CFG by design
	default:
		return fc.fallback(e)
	}
}

// fallback is the dimension of an expression nothing resolved: integer-typed
// expressions are counts (dimensionless), everything else is ⊤.
func (fc *funcChecker) fallback(e ast.Expr) Dim {
	if tv, ok := fc.info().Types[e]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return NoDim()
		}
	}
	return TopDim()
}

func (fc *funcChecker) constShortcut(e ast.Expr) (Dim, bool) {
	if tv, ok := fc.info().Types[e]; ok && tv.Value != nil {
		return ConstDim(), true
	}
	return Dim{}, false
}

func (fc *funcChecker) identDim(id *ast.Ident, env dimEnv) Dim {
	if id.Name == "_" {
		return TopDim()
	}
	obj := fc.info().Uses[id]
	if obj == nil {
		obj = fc.info().Defs[id]
	}
	if v, ok := obj.(*types.Var); ok {
		if d, ok := env[v]; ok && !d.IsBottom() {
			return d
		}
		if d, ok := fc.seeds[v]; ok {
			return d
		}
	}
	if obj != nil {
		if d, ok := fc.dc.units.objects[obj]; ok {
			return d
		}
	}
	if d, ok := fc.constShortcut(id); ok {
		return d
	}
	return fc.fallback(id)
}

func (fc *funcChecker) selectorDim(sel *ast.SelectorExpr, env dimEnv) Dim {
	info := fc.info()
	// pkg.Name: a qualified const, var or func value.
	if x, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[x].(*types.PkgName); ok {
			if obj := info.Uses[sel.Sel]; obj != nil {
				if d, ok := fc.dc.lookup(pn.Imported().Path(), obj.Name()); ok {
					return d
				}
			}
			if d, ok := fc.constShortcut(sel); ok {
				return d
			}
			return fc.fallback(sel)
		}
	}
	fc.expr(sel.X, env) // checks nested in the receiver expression
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		field := s.Obj()
		if d, ok := fc.dc.units.objects[field]; ok {
			return d
		}
		if path, typeName, ok := recvNamed(s.Recv()); ok {
			if d, ok := fc.dc.lookup(path, typeName+"."+field.Name()); ok {
				return d
			}
		}
		return fc.fallback(sel)
	}
	if d, ok := fc.constShortcut(sel); ok {
		return d
	}
	return fc.fallback(sel)
}

// recvNamed unwraps a selection receiver to its named type's (package path,
// type name).
func recvNamed(recv types.Type) (path, name string, ok bool) {
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

func (fc *funcChecker) binary(e *ast.BinaryExpr, env dimEnv) Dim {
	a := fc.expr(e.X, env)
	b := fc.expr(e.Y, env)
	switch e.Op {
	case token.MUL:
		return a.Mul(b)
	case token.QUO:
		return a.Div(b)
	case token.ADD, token.SUB:
		if !a.Compatible(b) {
			fc.reportf(e.OpPos, "dimension mismatch: %s %s %s", a, e.Op, b)
		}
		return addResult(a, b)
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		if !a.Compatible(b) {
			fc.reportf(e.OpPos, "dimension mismatch: comparing %s %s %s", a, e.Op, b)
		}
		return NoDim()
	default:
		return fc.fallback(e)
	}
}

func (fc *funcChecker) call(call *ast.CallExpr, env dimEnv) Dim {
	info := fc.info()
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return TopDim()
		}
		return fc.convDim(tv.Type, call.Args[0], env)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return fc.builtinCall(id.Name, call, env)
		}
	}
	if path, name, ok := fc.dc.pass.pkgFunc(call); ok && path == "math" {
		return fc.mathCall(name, call, env)
	}
	fn, path, key, ok := calleeFunc(info, call)
	if !ok {
		fc.evalFun(call.Fun, env)
		for _, a := range call.Args {
			fc.expr(a, env)
		}
		return fc.fallback(call)
	}
	fc.evalFun(call.Fun, env)
	fc.checkArgs(call, fn, path, key, env)
	if d, ok := fc.dc.lookup(path, key+".return"); ok {
		return d
	}
	return fc.fallback(call)
}

// evalFun checks expressions nested in the callee position (a call-returning
// call, a field holding a func value) without resolving it, taking care not
// to re-evaluate plain identifier chains.
func (fc *funcChecker) evalFun(fun ast.Expr, env dimEnv) {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			if _, isPkg := fc.info().Uses[x].(*types.PkgName); isPkg {
				return
			}
		}
		fc.expr(f.X, env)
	default:
		fc.expr(f, env)
	}
}

// checkArgs evaluates call arguments and checks them against the callee's
// annotated parameters.
func (fc *funcChecker) checkArgs(call *ast.CallExpr, fn *types.Func, path, key string, env dimEnv) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		for _, a := range call.Args {
			fc.expr(a, env)
		}
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		ad := fc.expr(arg, env)
		pi := i
		if sig.Variadic() && pi >= params.Len()-1 {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			continue
		}
		p := params.At(pi)
		if p.Name() == "" {
			continue
		}
		if pd, ok := fc.dc.lookup(path, key+".param."+p.Name()); ok && !ad.Compatible(pd) {
			fc.reportf(arg.Pos(), "argument %d of %s is %s; parameter %s is declared %s",
				i+1, key, ad, p.Name(), pd)
		}
	}
}

// resultValues is the per-result dimension list of a multi-value expression
// (a call in `a, b := f()` position).
func (fc *funcChecker) resultValues(e ast.Expr, n int, env dimEnv) []Dim {
	dims := make([]Dim, n)
	for i := range dims {
		dims[i] = TopDim()
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		fc.expr(e, env)
		return dims
	}
	fn, path, key, resolved := calleeFunc(fc.info(), call)
	if !resolved {
		fc.expr(e, env)
		return dims
	}
	fc.evalFun(call.Fun, env)
	fc.checkArgs(call, fn, path, key, env)
	for i := range dims {
		k := key + ".return"
		if i > 0 {
			k = fmt.Sprintf("%s.return%d", key, i+1)
		}
		if d, ok := fc.dc.lookup(path, k); ok {
			dims[i] = d
		}
	}
	return dims
}

// convDim handles conversions T(x): float↔float preserves the dimension,
// int→float produces a dimensionless count, and anything integer-valued is a
// count.
func (fc *funcChecker) convDim(target types.Type, arg ast.Expr, env dimEnv) Dim {
	d := fc.expr(arg, env)
	tb, _ := target.Underlying().(*types.Basic)
	if tb == nil {
		return TopDim()
	}
	switch {
	case tb.Info()&types.IsFloat != 0:
		if at, ok := fc.info().Types[arg]; ok && at.Type != nil {
			if ab, ok := at.Type.Underlying().(*types.Basic); ok && ab.Info()&types.IsInteger != 0 {
				return NoDim()
			}
		}
		return d
	case tb.Info()&types.IsInteger != 0:
		return NoDim()
	default:
		return TopDim()
	}
}

func (fc *funcChecker) builtinCall(name string, call *ast.CallExpr, env dimEnv) Dim {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return TopDim()
		}
		d := fc.expr(call.Args[0], env)
		for _, a := range call.Args[1:] {
			ad := fc.expr(a, env)
			if !ad.Compatible(d) {
				fc.reportf(a.Pos(), "appending %s to a container of %s", ad, d)
				continue
			}
			d = addResult(d, ad)
		}
		return d
	case "min", "max":
		var d Dim // ⊥
		for _, a := range call.Args {
			ad := fc.expr(a, env)
			if !ad.Compatible(d) {
				fc.reportf(a.Pos(), "dimension mismatch: %s argument is %s, earlier arguments are %s", name, ad, d)
				continue
			}
			d = addResult(d, ad)
		}
		return d
	case "len", "cap":
		for _, a := range call.Args {
			fc.expr(a, env)
		}
		return NoDim()
	default:
		for _, a := range call.Args {
			fc.expr(a, env)
		}
		return fc.fallback(call)
	}
}

// mathCall gives the math package its dimensional semantics.
func (fc *funcChecker) mathCall(name string, call *ast.CallExpr, env dimEnv) Dim {
	argDim := func(i int) Dim {
		if i < len(call.Args) {
			return fc.expr(call.Args[i], env)
		}
		return TopDim()
	}
	switch name {
	case "Abs", "Floor", "Ceil", "Round", "RoundToEven", "Trunc":
		return argDim(0)
	case "Copysign":
		d := argDim(0)
		argDim(1)
		return d
	case "Sqrt":
		return argDim(0).Pow(1, 2)
	case "Cbrt":
		return argDim(0).Pow(1, 3)
	case "Pow":
		base := argDim(0)
		if num, den, ok := fc.constRat(1, call); ok {
			return base.Pow(num, den)
		}
		ed := argDim(1)
		if ed.IsExact() && !ed.IsDimensionless() {
			fc.reportf(call.Pos(), "math.Pow exponent has dimension %s; must be dimensionless", ed)
		}
		// A runtime exponent (the α-power law's alpha, temperature scaling)
		// makes the result's dimension data-dependent.
		if base.IsConst() || base.IsDimensionless() {
			return NoDim()
		}
		return TopDim()
	case "Min", "Max", "Mod", "Remainder", "Dim", "Hypot", "Nextafter":
		a, b := argDim(0), argDim(1)
		if !a.Compatible(b) {
			fc.reportf(call.Pos(), "dimension mismatch: math.%s(%s, %s)", name, a, b)
		}
		return addResult(a, b)
	case "Exp", "Exp2", "Expm1", "Log", "Log2", "Log10", "Log1p",
		"Sin", "Cos", "Tan", "Asin", "Acos", "Atan",
		"Sinh", "Cosh", "Tanh", "Asinh", "Acosh", "Atanh",
		"Erf", "Erfc", "Gamma":
		d := argDim(0)
		if d.IsExact() && !d.IsDimensionless() {
			fc.reportf(call.Pos(), "math.%s argument has dimension %s; must be dimensionless", name, d)
		}
		return NoDim()
	case "Atan2":
		a, b := argDim(0), argDim(1)
		if !a.Compatible(b) {
			fc.reportf(call.Pos(), "dimension mismatch: math.Atan2(%s, %s)", a, b)
		}
		return NoDim()
	case "Inf", "NaN":
		argDim(0)
		return ConstDim()
	case "IsNaN", "IsInf", "Signbit":
		for i := range call.Args {
			argDim(i)
		}
		return NoDim()
	default:
		for i := range call.Args {
			argDim(i)
		}
		return fc.fallback(call)
	}
}

// constRat extracts call argument i as an exact rational (math.Pow's constant
// exponent).
func (fc *funcChecker) constRat(i int, call *ast.CallExpr) (num, den int64, ok bool) {
	if i >= len(call.Args) {
		return 0, 0, false
	}
	tv, found := fc.info().Types[call.Args[i]]
	if !found || tv.Value == nil {
		return 0, 0, false
	}
	v := tv.Value
	if v.Kind() != constant.Int && v.Kind() != constant.Float {
		return 0, 0, false
	}
	n, okN := constant.Int64Val(constant.Num(v))
	d, okD := constant.Int64Val(constant.Denom(v))
	if !okN || !okD || d == 0 {
		return 0, 0, false
	}
	return n, d, true
}

func (fc *funcChecker) composite(e *ast.CompositeLit, env dimEnv) Dim {
	tv := fc.info().Types[e]
	var path, typeName string
	if tv.Type != nil {
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			path, typeName = named.Obj().Pkg().Path(), named.Obj().Name()
		}
	}
	for _, elt := range e.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			fc.expr(elt, env)
			continue
		}
		d := fc.expr(kv.Value, env)
		key, isField := kv.Key.(*ast.Ident)
		if isField && typeName != "" {
			if want, ok := fc.dc.lookup(path, typeName+"."+key.Name); ok && !d.Compatible(want) {
				fc.reportf(kv.Value.Pos(), "field %s.%s is declared %s; assigned %s", typeName, key.Name, want, d)
			}
			continue
		}
		if !isField {
			fc.expr(kv.Key, env) // map-literal keys
		}
	}
	return TopDim()
}

// calleeFunc mirrors calleeRef but also returns the callee object, whose
// signature names the parameters for annotation lookup.
func calleeFunc(info *types.Info, call *ast.CallExpr) (fn *types.Func, path, key string, ok bool) {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fo, isFunc := info.Uses[f].(*types.Func); isFunc && fo.Pkg() != nil {
			return fo, fo.Pkg().Path(), fo.Name(), true
		}
	case *ast.SelectorExpr:
		if sel, isMethod := info.Selections[f]; isMethod && sel.Kind() == types.MethodVal {
			if fo, isFunc := sel.Obj().(*types.Func); isFunc {
				if path, name, ok := recvNamed(sel.Recv()); ok {
					return fo, path, name + "." + f.Sel.Name, true
				}
			}
			return nil, "", "", false
		}
		if x, isID := f.X.(*ast.Ident); isID {
			if pn, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				if fo, isFunc := info.Uses[f.Sel].(*types.Func); isFunc {
					return fo, pn.Imported().Path(), f.Sel.Name, true
				}
			}
		}
	}
	return nil, "", "", false
}

// exprText renders an assignment target for diagnostics.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	}
	return "expression"
}

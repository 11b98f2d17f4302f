package analysis

import (
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Cross-package function facts.
//
// The flow-aware analyzers need to know things about callees that live in
// other packages: is this function on the annotated hot path, does its body
// heap-allocate, does it funnel into an Engine full evaluation, does it poll
// a context? A FuncFacts record answers those per function; PkgFacts collects
// them per package, keyed "Func" for package functions and "Type.Method" for
// methods.
//
// Facts flow between packages two ways:
//
//   - in standalone/fixture mode the Loader computes them from source on
//     demand (Loader.PackageFacts);
//   - under `go vet -vettool` each compilation unit writes its facts to the
//     .vetx file cmd/go hands it (schema cmosvet/facts/v1) and reads its
//     dependencies' facts from the PackageVetx map, mirroring how
//     golang.org/x/tools analysis facts ride the export pipeline.

// FuncFacts are the per-function properties the flow-aware analyzers share.
type FuncFacts struct {
	// Hotpath is set by a //cmosvet:hotpath directive on the declaration:
	// the function promises not to heap-allocate (enforced by hotalloc).
	Hotpath bool `json:"hotpath,omitempty"`
	// Allocates reports a direct heap-allocating construct in the body
	// (make/new, slice/map or address-taken composite literals, capturing
	// closures, string concatenation, interface boxing). Direct only — no
	// call-graph closure — so a hot caller is judged against what the callee
	// itself does, not against its cold error paths' callees.
	Allocates bool `json:"allocates,omitempty"`
	// CallsEval reports that the function reaches an Engine full evaluation
	// (Delays/Energy/...), directly or through same-package calls. Loops
	// over such functions are candidate loops to ctxpoll.
	CallsEval bool `json:"callseval,omitempty"`
	// PollsCtx reports that the function observes a context.Context
	// (ctx.Err/ctx.Done), directly or through same-package calls; calling it
	// counts as a cancellation poll to ctxpoll.
	PollsCtx bool `json:"pollsctx,omitempty"`
}

// PkgFacts bundles one package's cross-package facts: per-function behavior
// facts under "Func" / "Type.Method" keys, and the unit-annotation table of
// its declaration sites (schema cmosvet/units/v1, consumed by dimcheck).
type PkgFacts struct {
	Funcs map[string]FuncFacts
	// Units maps declaration keys — "Type.Field", "ConstName",
	// "Func.param.x", "Type.Method.return" — to canonical unit expressions
	// (Dim.String() / ParseUnit round-trip).
	Units map[string]string
}

// Empty reports a facts value carrying no information (unknown package).
func (f PkgFacts) Empty() bool { return f.Funcs == nil && f.Units == nil }

// FactProvider hands a pass the facts of any package by (normalized) import
// path; the zero PkgFacts means the package is unknown (standard library,
// unanalyzed).
type FactProvider interface {
	PackageFacts(path string) PkgFacts
}

// FactsSchema identifies the vetx facts serialization.
const FactsSchema = "cmosvet/facts/v1"

type factsFile struct {
	Schema string               `json:"schema"`
	Funcs  map[string]FuncFacts `json:"funcs,omitempty"`
	// The unit table rides the same file under its own schema tag so the
	// two fact families can version independently.
	UnitsSchema string            `json:"unitsSchema,omitempty"`
	Units       map[string]string `json:"units,omitempty"`
}

// EncodeFacts serializes package facts for a .vetx file (deterministic: JSON
// object keys marshal sorted).
func EncodeFacts(f PkgFacts) []byte {
	file := factsFile{Schema: FactsSchema, Funcs: f.Funcs}
	if len(f.Units) > 0 {
		file.UnitsSchema = UnitsSchema
		file.Units = f.Units
	}
	b, err := json.Marshal(file)
	if err != nil { // maps of bools and strings cannot fail to marshal
		return []byte(`{"schema":"` + FactsSchema + `"}`)
	}
	return append(b, '\n')
}

// DecodeFacts parses a .vetx facts payload; unknown or legacy payloads (other
// tools' vetx, the pre-facts placeholder) decode to the zero PkgFacts rather
// than erroring, because missing facts only widen what the analyzers accept.
// A units block under the wrong schema is dropped on its own.
func DecodeFacts(data []byte) PkgFacts {
	var f factsFile
	if err := json.Unmarshal(data, &f); err != nil || f.Schema != FactsSchema {
		return PkgFacts{}
	}
	out := PkgFacts{Funcs: f.Funcs}
	if f.UnitsSchema == UnitsSchema {
		out.Units = f.Units
	}
	return out
}

var hotpathRx = regexp.MustCompile(`^//\s*cmosvet:hotpath\b`)

// ComputePkgFacts derives the facts of one loaded package from source: the
// directive and allocation scans per declaration, then a fixpoint closing
// CallsEval/PollsCtx over same-package calls (so core's evalPoint marks every
// helper that funnels into it, and Problem.Canceled marks its wrappers as
// polls).
func ComputePkgFacts(p *LoadedPackage) PkgFacts {
	facts := map[string]FuncFacts{}
	calls := map[string]map[string]bool{} // caller key → same-package callee keys
	selfPath := normalizePkgPath(p.Types.Path())

	for _, f := range p.Files {
		hotLines := directiveLines(p.Fset, f, hotpathRx)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := declKey(fd)
			ff := FuncFacts{
				Hotpath:   hotpathMarked(p.Fset, fd, hotLines),
				Allocates: len(allocSites(fd.Body, p.Info, p.Types)) > 0,
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isEngineEvalCall(p.Info, call) {
					ff.CallsEval = true
				}
				if isCtxPollCall(p.Info, call) {
					ff.PollsCtx = true
				}
				if path, ckey, ok := calleeRef(p.Info, call); ok && normalizePkgPath(path) == selfPath {
					if calls[key] == nil {
						calls[key] = map[string]bool{}
					}
					calls[key][ckey] = true
				}
				return true
			})
			facts[key] = ff
		}
	}

	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			cf := facts[caller]
			for ckey := range callees {
				tf := facts[ckey]
				if tf.CallsEval && !cf.CallsEval {
					cf.CallsEval = true
					changed = true
				}
				if tf.PollsCtx && !cf.PollsCtx {
					cf.PollsCtx = true
					changed = true
				}
			}
			facts[caller] = cf
		}
	}
	return PkgFacts{Funcs: facts, Units: collectUnits(p.Files, p.Info).UnitDecls()}
}

// directiveLines returns the line numbers of comments matching rx in file f.
func directiveLines(fset *token.FileSet, f *ast.File, rx *regexp.Regexp) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if rx.MatchString(c.Text) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// hotpathMarked reports whether fd carries a //cmosvet:hotpath directive: in
// its doc comment, or on any comment line in the gap directly above the
// declaration (which also covers directives stacked with other comments).
func hotpathMarked(fset *token.FileSet, fd *ast.FuncDecl, hotLines map[int]bool) bool {
	if len(hotLines) == 0 {
		return false
	}
	declLine := fset.Position(fd.Pos()).Line
	from := declLine - 1
	if fd.Doc != nil {
		from = fset.Position(fd.Doc.Pos()).Line
	}
	for l := from; l < declLine; l++ {
		if hotLines[l] {
			return true
		}
	}
	return false
}

// declKey is the PkgFacts key of a declaration: "Func", or "Type.Method".
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if tn := recvTypeName(fd.Recv.List[0].Type); tn != "" {
			return tn + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
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

// calleeRef resolves a call to the callee's (package path, facts key): plain
// function calls, pkg-qualified calls and method calls on named types.
// Indirect calls through function values (closures, params) do not resolve.
func calleeRef(info *types.Info, call *ast.CallExpr) (path, key string, ok bool) {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, isFunc := info.Uses[fn].(*types.Func); isFunc && f.Pkg() != nil {
			return f.Pkg().Path(), f.Name(), true
		}
	case *ast.SelectorExpr:
		if sel, isMethod := info.Selections[fn]; isMethod && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path(), named.Obj().Name() + "." + fn.Sel.Name, true
			}
			return "", "", false
		}
		if x, isID := fn.X.(*ast.Ident); isID {
			if pn, isPkg := info.Uses[x].(*types.PkgName); isPkg {
				return pn.Imported().Path(), fn.Sel.Name, true
			}
		}
	}
	return "", "", false
}

// engineEvalMethods are the Engine entry points that evaluate the whole
// circuit — the "one candidate evaluation" granularity of the PR 8
// cancellation contract. Per-gate probes (ProbeWidth, GateDelayWith,
// GateDelayOverride, GateEnergy, and the prepared probe's PrepareWidth,
// WidthProbe.At and WidthProbe.Settled) and incremental Bound* reads are
// deliberately excluded: a width-solve pass inside one candidate may loop
// over them without polling.
var engineEvalMethods = map[string]bool{
	"Delays": true, "Arrivals": true, "Slacks": true,
	"CriticalDelay": true, "CriticalPath": true,
	"Energy": true,
}

// isEngineEvalCall reports a call to an eval.Engine full-circuit evaluation.
func isEngineEvalCall(info *types.Info, call *ast.CallExpr) bool {
	path, typeName, method, ok := methodOnInfo(info, call)
	return ok && pathHasSuffix(path, "internal/eval") && typeName == "Engine" && engineEvalMethods[method]
}

// isCtxPollCall reports a direct context observation: ctx.Err() or ctx.Done()
// on a context.Context value.
func isCtxPollCall(info *types.Info, call *ast.CallExpr) bool {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return tv.Type.String() == "context.Context"
}

// methodOnInfo is Pass.methodOn without the Pass: resolves a method call to
// (receiver package path, receiver type name, method name).
func methodOnInfo(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string, ok bool) {
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
	if !isNamed {
		return "", "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), sel.Sel.Name, true
}

// funcFact looks a callee up through the pass's fact provider; the zero
// FuncFacts (with ok=false) comes back for unknown packages or functions.
func (p *Pass) funcFact(path, key string) (FuncFacts, bool) {
	if p.Facts == nil {
		return FuncFacts{}, false
	}
	pf := p.Facts.PackageFacts(normalizePkgPath(path))
	if pf.Funcs == nil {
		return FuncFacts{}, false
	}
	f, ok := pf.Funcs[key]
	return f, ok
}

// unitFact resolves a declaration's unit through the pass's fact provider;
// ⊤ (with ok=false) comes back for unknown packages or unannotated keys.
func (p *Pass) unitFact(path, key string) (Dim, bool) {
	if p.Facts == nil {
		return TopDim(), false
	}
	pf := p.Facts.PackageFacts(normalizePkgPath(path))
	expr, ok := pf.Units[key]
	if !ok {
		return TopDim(), false
	}
	d, err := ParseUnit(expr)
	if err != nil {
		return TopDim(), false
	}
	return d, true
}

// --- allocation-site scanning (shared by the Allocates fact and hotalloc) ---

type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites lists the heap-allocating constructs under root:
//
//   - make and new;
//   - composite literals of slice or map type, and address-taken composite
//     literals (&T{...} escapes);
//   - closures that capture enclosing locals;
//   - non-constant string concatenation (+ and +=);
//   - implicit interface boxing: a non-interface value converted or passed
//     where an interface is expected.
//
// append is deliberately absent — the repo's hot paths append into
// preallocated scratch (e.g. the incremental dirty heap), which stays
// allocation-free at steady state; the benchmark allocation gate backstops
// capacity bugs. Arguments of panic calls are exempt: a panic is already off
// the hot path.
func allocSites(root ast.Node, info *types.Info, pkg *types.Package) []allocSite {
	var sites []allocSite
	skipLit := map[*ast.CompositeLit]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, isID := ast.Unparen(n.Fun).(*ast.Ident); isID {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make", "new":
						sites = append(sites, allocSite{n.Pos(), id.Name})
					case "panic":
						return false // cold path: don't charge the argument
					}
					return true
				}
			}
			sites = append(sites, boxingSites(n, info)...)
		case *ast.CompositeLit:
			if skipLit[n] {
				return true
			}
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					sites = append(sites, allocSite{n.Pos(), "slice literal"})
				case *types.Map:
					sites = append(sites, allocSite{n.Pos(), "map literal"})
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					sites = append(sites, allocSite{n.Pos(), "address-taken composite literal"})
					skipLit[cl] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(info, n) && !isConstExpr(info, n) {
				sites = append(sites, allocSite{n.Pos(), "string concatenation"})
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				sites = append(sites, allocSite{n.Pos(), "string concatenation"})
			}
		case *ast.FuncLit:
			if closureCaptures(n, info, pkg) {
				sites = append(sites, allocSite{n.Pos(), "capturing closure"})
			}
		}
		return true
	})
	return sites
}

// boxingSites flags call arguments implicitly converted to interface types,
// and explicit conversions to interfaces.
func boxingSites(call *ast.CallExpr, info *types.Info) []allocSite {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	if tv.IsType() {
		// Conversion T(x): boxes when T is an interface and x is not.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxesArg(info, call.Args[0]) {
			return []allocSite{{call.Pos(), "interface conversion"}}
		}
		return nil
	}
	sig, isSig := tv.Type.Underlying().(*types.Signature)
	if !isSig {
		return nil
	}
	var sites []allocSite
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis.IsValid() {
				pt = last // f(xs...): the slice passes through unboxed
			} else if sl, isSlice := last.(*types.Slice); isSlice {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && boxesArg(info, arg) {
			sites = append(sites, allocSite{arg.Pos(), "interface boxing"})
		}
	}
	return sites
}

// boxesArg reports whether passing arg to an interface parameter allocates:
// its static type is concrete (nil and existing interface values pass
// through).
func boxesArg(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	if _, isTP := tv.Type.(*types.TypeParam); isTP {
		return false
	}
	return !types.IsInterface(tv.Type)
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, isBasic := tv.Type.Underlying().(*types.Basic)
	return isBasic && basic.Info()&types.IsString != 0
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// closureCaptures reports whether the function literal references a variable
// of an enclosing function (package-level variables and its own
// locals/params don't count — only captures force a heap closure).
func closureCaptures(lit *ast.FuncLit, info *types.Info, pkg *types.Package) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID || captures {
			return !captures
		}
		v, isVar := info.Uses[id].(*types.Var)
		if !isVar || v.IsField() || v.Parent() == nil {
			return true
		}
		if v.Parent() == types.Universe || v.Parent() == pkg.Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

package analysis

import (
	"go/ast"
	"go/types"
)

// Cross-package function facts.
//
// ctxpoll needs to know things about callees that live in other packages:
// does this function funnel into an Engine full evaluation, does it poll a
// context? A FuncFacts record answers those per function; PkgFacts collects
// them per package, keyed "Func" for package functions and "Type.Method" for
// methods. The Loader computes them from source on demand
// (Loader.PackageFacts).

// FuncFacts are the per-function properties ctxpoll reads.
type FuncFacts struct {
	// CallsEval reports that the function reaches an Engine full evaluation
	// (Delays/Energy/...), directly or through same-package calls. Loops
	// over such functions are candidate loops to ctxpoll.
	CallsEval bool
	// PollsCtx reports that the function observes a context.Context
	// (ctx.Err/ctx.Done), directly or through same-package calls; calling it
	// counts as a cancellation poll to ctxpoll.
	PollsCtx bool
}

// PkgFacts holds one package's function facts under "Func" / "Type.Method"
// keys.
type PkgFacts map[string]FuncFacts

// FactProvider hands a pass the facts of any package by (normalized) import
// path; a nil PkgFacts means the package is unknown (standard library,
// unanalyzed).
type FactProvider interface {
	PackageFacts(path string) PkgFacts
}

// ComputePkgFacts derives the facts of one loaded package from source: the
// direct evaluation and poll calls of each declaration, then a fixpoint
// closing CallsEval/PollsCtx over same-package calls (so core's evalPoint
// marks every helper that funnels into it, and Problem.Canceled marks its
// wrappers as polls).
func ComputePkgFacts(p *LoadedPackage) PkgFacts {
	facts := PkgFacts{}
	calls := map[string]map[string]bool{} // caller key → same-package callee keys
	selfPath := normalizePkgPath(p.Types.Path())

	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := declKey(fd)
			var ff FuncFacts
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
	return facts
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
// cancellation contract. WidthDelays, the width kernel's verification sweep,
// is one: it is how a width solve re-times the circuit. Per-gate probes
// (ProbeWidth, GateDelayWith, GateDelayOverride, GateEnergy), the width
// kernel's passes (SizeWidths) and incremental Bound* reads are deliberately
// excluded: a width solve inside one candidate may run them without polling.
var engineEvalMethods = map[string]bool{
	"Delays": true, "CriticalDelay": true, "Energy": true, "WidthDelays": true,
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

// methodOnInfo resolves a method call on a named type or a pointer to one to
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
	f, ok := p.Facts.PackageFacts(normalizePkgPath(path))[key]
	return f, ok
}

package analysis

import (
	"go/ast"
	"go/types"
)

// CtxPoll enforces the PR 8 cancellation contract: optimization runs abort
// at candidate boundaries. Concretely, in internal/core and
// internal/optimize, every loop whose iteration reaches an Engine
// full-circuit evaluation (a "candidate loop") must observe the run's
// context on every path that completes an iteration — otherwise a served
// job's cancel would silently stop working for that loop shape.
//
// What counts as reaching evaluation: a direct call to an Engine
// full-evaluation method (Delays/Arrivals/CriticalDelay/CriticalPath/
// Energy), a call to a same-module function whose CallsEval
// fact is set (computed transitively within each package — core's evalPoint
// and everything funneling into it), or a call to a local closure whose body
// does either. Per-gate probes (ProbeWidth, GateDelayWith, GateDelayOverride)
// and the width kernel's passes (SizeWidths) are deliberately not
// "evaluation": a width solve inside one candidate runs them by design and
// polls only at its candidate boundary.
//
// What counts as a poll: ctx.Err()/ctx.Done() on a context.Context, a call
// to a function whose PollsCtx fact is set (Problem.Canceled and its
// wrappers), or a call to a local closure that polls.
//
// The check is path-sensitive: the loop body's CFG is rebuilt in loop-body
// mode (continue and the fall-through end both reach the iteration latch;
// break/return paths leave the loop and are exempt) and a must-dataflow
// verifies a poll on every latch-reaching path. A nested loop's poll does
// not satisfy the outer loop (the nested loop may run zero iterations) —
// poll in each candidate loop.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "candidate loops reaching engine evaluation must poll the run context every iteration",
	Run:  runCtxPoll,
}

// ctxPollPkgs are the packages holding candidate loops: the optimization
// procedures and the numeric search kernels they call.
var ctxPollPkgs = []string{"internal/core", "internal/optimize"}

func runCtxPoll(pass *Pass) error {
	if !pathIn(normalizePkgPath(pass.Pkg.Path()), ctxPollPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.isTestFile(fd.Pos()) {
				continue
			}
			checkFuncLoops(pass, fd)
		}
	}
	return nil
}

// localTraits classifies the closures bound to variables inside one function
// so that calls through them resolve: `evalGroups := func(...) {...}` makes
// a later `evalGroups(g)` an evaluation call.
type localTraits struct {
	pass  *Pass
	evals map[*types.Var]bool
	polls map[*types.Var]bool
}

func gatherLocalTraits(pass *Pass, fd *ast.FuncDecl) *localTraits {
	lt := &localTraits{pass: pass, evals: map[*types.Var]bool{}, polls: map[*types.Var]bool{}}
	// Fixpoint so closures calling earlier closures classify too; bodies are
	// scanned with the traits known so far, repeated until stable.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				lit, isLit := ast.Unparen(rhs).(*ast.FuncLit)
				if !isLit {
					continue
				}
				id, isID := as.Lhs[i].(*ast.Ident)
				if !isID {
					continue
				}
				v := lt.lhsVar(id)
				if v == nil {
					continue
				}
				if !lt.evals[v] && lt.scan(lit.Body, lt.callsEval) {
					lt.evals[v] = true
					changed = true
				}
				if !lt.polls[v] && lt.scan(lit.Body, lt.isPoll) {
					lt.polls[v] = true
					changed = true
				}
			}
			return true
		})
	}
	return lt
}

func (lt *localTraits) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := lt.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := lt.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// scan reports whether any call under root satisfies pred.
func (lt *localTraits) scan(root ast.Node, pred func(*ast.CallExpr) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && pred(call) {
			found = true
		}
		return !found
	})
	return found
}

// callsEval reports whether one call reaches engine evaluation.
func (lt *localTraits) callsEval(call *ast.CallExpr) bool {
	if isEngineEvalCall(lt.pass.TypesInfo, call) {
		return true
	}
	if path, key, ok := calleeRef(lt.pass.TypesInfo, call); ok {
		if f, known := lt.pass.funcFact(path, key); known && f.CallsEval {
			return true
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, isVar := lt.pass.TypesInfo.Uses[id].(*types.Var); isVar && lt.evals[v] {
			return true
		}
	}
	return false
}

// isPoll reports whether one call observes the run context.
func (lt *localTraits) isPoll(call *ast.CallExpr) bool {
	if isCtxPollCall(lt.pass.TypesInfo, call) {
		return true
	}
	if path, key, ok := calleeRef(lt.pass.TypesInfo, call); ok {
		if f, known := lt.pass.funcFact(path, key); known && f.PollsCtx {
			return true
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, isVar := lt.pass.TypesInfo.Uses[id].(*types.Var); isVar && lt.polls[v] {
			return true
		}
	}
	return false
}

func checkFuncLoops(pass *Pass, fd *ast.FuncDecl) {
	lt := gatherLocalTraits(pass, fd)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch s := n.(type) {
		case *ast.LabeledStmt:
			// Keep the label with its loop so `continue L` routes to the
			// right latch in the loop-body CFG; then recurse into the body.
			switch inner := s.Stmt.(type) {
			case *ast.ForStmt:
				checkLoop(pass, lt, inner, inner.Body, s.Label.Name)
				ast.Inspect(inner.Body, visit)
				return false
			case *ast.RangeStmt:
				checkLoop(pass, lt, inner, inner.Body, s.Label.Name)
				ast.Inspect(inner.Body, visit)
				return false
			}
		case *ast.ForStmt:
			checkLoop(pass, lt, s, s.Body, "")
		case *ast.RangeStmt:
			checkLoop(pass, lt, s, s.Body, "")
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// checkLoop reports the loop when it reaches evaluation but some
// iteration-completing path carries no poll.
func checkLoop(pass *Pass, lt *localTraits, loop ast.Stmt, body *ast.BlockStmt, label string) {
	if !lt.scan(body, lt.callsEval) {
		return
	}
	cfg := BuildLoopBody(loop, label)
	if cfg == nil {
		return
	}
	// Must-analysis: state is "polled so far on every path"; meet is AND.
	transfer := func(b *Block, in bool) bool {
		if in {
			return true
		}
		for _, n := range b.Nodes {
			if lt.scan(n, lt.isPoll) {
				return true
			}
		}
		return in
	}
	meet := func(a, b bool) bool { return a && b }
	eq := func(a, b bool) bool { return a == b }
	in, _ := Forward(cfg, false, transfer, meet, eq)
	polled, latchReached := in[cfg.Exit]
	if latchReached && !polled {
		pass.Reportf(loop.Pos(), "loop reaches engine evaluation but does not poll Spec.Ctx on every iteration path; add an early `if ctx.Err() != nil` (or Canceled()) check so served jobs stay cancelable at candidate boundaries")
	}
}

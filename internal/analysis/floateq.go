package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags exact ==/!= between floating-point values in the bisection
// and convergence packages (internal/core, internal/optimize). Two float
// variables that "should" be equal — an energy that stopped improving, a
// width that stopped moving — rarely are bit-identical after different
// arithmetic paths, so exact equality either never fires (a convergence
// check that cannot terminate) or fires spuriously (a branch taken on
// rounding noise). A comparison states its tolerance explicitly
// (|a−b| ≤ tol, with tol chosen for the quantity compared), or carries a
// //cmosvet:allow floateq annotation saying why exactness is intended.
//
// Comparisons against a compile-time constant are exempt: `opts.FixedVt != 0`
// and friends are deliberate "knob is unset" sentinels on values that are
// assigned, not computed.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no exact float ==/!= in bisection/convergence code; compare within an explicit tolerance",
	Run:  runFloatEq,
}

// floatEqPkgs hold the bisection and convergence loops.
var floatEqPkgs = []string{"internal/core", "internal/optimize"}

func runFloatEq(pass *Pass) error {
	if !pathIn(normalizePkgPath(pass.Pkg.Path()), floatEqPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloatExpr(pass, be.X) || !isFloatExpr(pass, be.Y) {
				return true
			}
			if isConstExpr(pass.TypesInfo, be.X) || isConstExpr(pass.TypesInfo, be.Y) {
				return true // sentinel comparison against a literal/constant
			}
			pass.Reportf(be.Pos(),
				"exact float %s in convergence code: bit-equality of computed floats is unreliable; compare within an explicit tolerance (|a-b| <= tol)", be.Op)
			return true
		})
	}
	return nil
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

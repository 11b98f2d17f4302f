package analysis

import (
	"go/ast"
	"strings"
)

// EvalRoute enforces the PR 1 invariant: internal/eval is the only place
// that constructs delay/power/device model evaluators. Every optimizer,
// study, tool and example obtains delay and energy numbers through an
// eval.Engine (eval.New / eval.NewDelayOnly), so the coefficient cache, the
// evaluation-effort meter and the incremental re-timing machinery can never
// be bypassed by a new call site.
//
// Flagged, outside the model packages themselves and internal/eval:
//
//   - calls to any New* constructor of internal/delay, internal/power or
//     internal/device (delay.New, power.New, ...);
//   - composite literals of delay.Evaluator or power.Evaluator.
//
// The model packages (delay, power, device) and their unit tests keep
// constructing evaluators directly — they test the Appendix-A formulas the
// engine wraps.
var EvalRoute = &Analyzer{
	Name: "evalroute",
	Doc:  "all delay/power/device evaluator construction must go through internal/eval",
	Run:  runEvalRoute,
}

// modelPkgs are the packages whose constructors the engine owns.
var modelPkgs = []string{"internal/delay", "internal/power", "internal/device"}

// evalRouteAllowed are the packages that may construct evaluators directly:
// the engine itself plus the model packages (which covers their unit tests).
var evalRouteAllowed = append([]string{"internal/eval"}, modelPkgs...)

func runEvalRoute(pass *Pass) error {
	if pathIn(normalizePkgPath(pass.Pkg.Path()), evalRouteAllowed...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				path, name, ok := pass.pkgFunc(n)
				if !ok || !strings.HasPrefix(name, "New") {
					return true
				}
				if pathIn(path, modelPkgs...) {
					short := path[strings.LastIndex(path, "/")+1:]
					pass.Reportf(n.Pos(),
						"%s.%s constructs a model evaluator outside internal/eval; route evaluation through eval.New/eval.NewDelayOnly so the engine's cache and effort meter cannot be bypassed",
						short, name)
				}
			case *ast.CompositeLit:
				if sel, ok := ast.Unparen(n.Type).(*ast.SelectorExpr); ok {
					tv, haveType := pass.TypesInfo.Types[sel]
					if !haveType {
						return true
					}
					named := tv.Type.String()
					for _, mp := range modelPkgs {
						if strings.Contains(named, mp+".Evaluator") {
							pass.Reportf(n.Pos(),
								"composite literal of %s outside internal/eval; evaluators are engine-owned",
								named)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// normalizePkgPath maps an external test package ("p_test", as LoadDir
// names it) to the package it tests, so scope rules apply to both alike.
func normalizePkgPath(path string) string {
	return strings.TrimSuffix(path, "_test")
}

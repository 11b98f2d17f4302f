package analysis

import (
	"go/ast"
	"testing"
)

// deterministicPkgs are the packages whose outputs the worker-invariance
// tests lock byte for byte. internal/serve is one: its responses must be
// byte-identical to the offline tools' output, and all wall-clock
// measurement of served requests belongs to cmd/loadgen, outside the server.
var deterministicPkgs = []string{
	"internal/core", "internal/eval", "internal/parallel", "internal/optimize",
	"internal/netgen", "internal/report", "internal/circuit", "internal/timing",
	"internal/serve",
}

// checkDeterminism keeps optimizer outputs byte-identical on any machine,
// under any load, in the one way the tests cannot check: it flags every
// wall-clock read, time.Now and time.Since, in the deterministic packages.
// A time budget or a latency-steered branch changes a result only when a run
// is slow, and every test run is fast, so the goldens never see it; a served
// response, a sweep on a loaded host or a large circuit would. The reads
// that only time work for instrumentation are listed in wallClockReads.
func checkDeterminism(p *LoadedPackage) []finding {
	if !inPkgs(p.Path, deterministicPkgs...) {
		return nil
	}
	return eachDecl(p, func(r *reporter, d ast.Decl) {
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgFunc(p.Info, call); ok && path == "time" && (name == "Now" || name == "Since") {
				r.reportf(call.Pos(), "time.%s in a deterministic package: the wall clock must not influence results", name)
			}
			return true
		})
	})
}

// TestDeterminism: the rule flags its seeded violation, the annealer's stop
// hook given a 30 s wall-clock budget, and the serving layer's latency
// reads, and leaves test files, tickers and packages outside its scope
// alone.
func TestDeterminism(t *testing.T) {
	checkSeeded(t, "determinism", checkDeterminism, "cmosopt/internal/core", "cmosopt/internal/other", "cmosopt/internal/serve")
}

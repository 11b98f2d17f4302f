package analysis

import (
	"go/ast"
)

// Determinism enforces the PR 2 invariant that optimizer outputs are
// byte-identical on any machine, under any load and at any worker count, in
// the one form the tests cannot check: no wall-clock read in the
// deterministic packages. A time budget or a latency-steered branch in the
// optimizer changes a result only when a run is slow, and every test run is
// fast, so the goldens never see it; a served response, a sweep on a loaded
// host or a large circuit would. The packages are internal/core,
// internal/eval, internal/parallel, internal/optimize, internal/netgen,
// internal/report, internal/circuit, internal/timing and internal/serve,
// whose responses must be byte-identical to the offline tools' output (all
// wall-clock measurement belongs to cmd/loadgen, outside the server).
//
// Outside *_test.go files it flags time.Now and time.Since. Instrumentation
// sites that time work for obs histograms are the one legitimate use; they
// carry //cmosvet:allow determinism with a reason.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "deterministic packages must not read the wall clock",
	Run:  runDeterminism,
}

// deterministicPkgs are the packages whose outputs the worker-invariance
// tests lock byte-for-byte.
var deterministicPkgs = []string{
	"internal/core", "internal/eval", "internal/parallel", "internal/optimize",
	"internal/netgen", "internal/report", "internal/circuit", "internal/timing",
	"internal/serve",
}

func runDeterminism(pass *Pass) error {
	if !pathIn(normalizePkgPath(pass.Pkg.Path()), deterministicPkgs...) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pass.pkgFunc(call); ok && path == "time" && (name == "Now" || name == "Since") {
				pass.Reportf(call.Pos(),
					"time.%s in a deterministic package: wall-clock must not influence results; if this only feeds obs instrumentation, annotate with //cmosvet:allow determinism and a reason", name)
			}
			return true
		})
	}
	return nil
}

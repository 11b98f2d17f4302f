package analysis

import (
	"go/ast"
	"strings"
)

// ObsWriteOnly enforces the PR 3 invariant: instrumentation never changes
// optimizer outputs. Outside internal/obs itself, internal/cli (the tool
// shim that freezes registries into manifests), internal/serve (which
// flattens per-job span snapshots into SSE progress events — serialization,
// never control flow), cmd/* and *_test.go files, obs state may be written
// (Counter.Add/Set, Histogram.Observe, Span.Start, WorkerStat.Record, ...)
// but never read: calls to the read API — Counter.Value,
// Registry.Snapshot/Wall, Histogram.Snapshot, Span.Snapshot — are flagged,
// because a read is the only way instrumentation can leak into control flow.
// TestObsDoesNotChangeOptimizerOutput catches a read that steers a small
// run; this catches the read that steers only a long or large one.
var ObsWriteOnly = &Analyzer{
	Name: "obswriteonly",
	Doc:  "obs instrumentation is write-only outside the observability and tool layers",
	Run:  runObsWriteOnly,
}

// obsReadMethods is the read API of internal/obs, per receiver type.
var obsReadMethods = map[string]map[string]bool{
	"Counter":   {"Value": true},
	"Registry":  {"Snapshot": true, "Wall": true},
	"Histogram": {"Snapshot": true},
	"Span":      {"Snapshot": true},
}

// obsReadAllowed may read instrumentation state: the obs layer itself and
// the tool layers that serialize it.
var obsReadAllowed = []string{"internal/obs", "internal/cli", "internal/serve"}

func runObsWriteOnly(pass *Pass) error {
	pkgPath := normalizePkgPath(pass.Pkg.Path())
	if isCmdPkg(pkgPath) || pathIn(pkgPath, obsReadAllowed...) {
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
			recvPath, recvType, method, ok := methodOnInfo(pass.TypesInfo, call)
			if ok && pathHasSuffix(recvPath, "internal/obs") && obsReadMethods[recvType][method] {
				pass.Reportf(call.Pos(),
					"obs.%s.%s reads instrumentation state outside the observability/tool layers; obs data must never feed back into an algorithm (write-only invariant)",
					recvType, method)
			}
			return true
		})
	}
	return nil
}

// isCmdPkg reports whether the package is a command-line tool (cmd/*).
func isCmdPkg(path string) bool {
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

package analysis

import (
	"go/ast"
	"strings"
	"testing"
)

// obsReadMethods is the read API of internal/obs, per receiver type.
var obsReadMethods = map[string]map[string]bool{
	"Counter":   {"Value": true},
	"Registry":  {"Snapshot": true, "Wall": true},
	"Histogram": {"Snapshot": true},
	"Span":      {"Snapshot": true},
}

// obsReadAllowed may read instrumentation state: the obs layer itself and
// the tool layers that serialize it (internal/cli freezes registries into
// manifests; internal/serve flattens job spans into SSE progress events).
var obsReadAllowed = []string{"internal/obs", "internal/cli", "internal/serve"}

// checkObsWriteOnly keeps instrumentation from changing optimizer outputs:
// outside internal/obs, the tool layers and cmd/*, obs state may be written
// (Counter.Add, Histogram.Observe, Span.Start, ...) but never read, because
// a read is the only way instrumentation can leak into control flow.
// TestObsDoesNotChangeOptimizerOutput catches a read that steers a small
// run; this catches the read that steers only a long or large one.
func checkObsWriteOnly(p *LoadedPackage) []finding {
	if strings.HasPrefix(p.Path, "cmd/") || strings.Contains(p.Path, "/cmd/") || inPkgs(p.Path, obsReadAllowed...) {
		return nil
	}
	return eachDecl(p, func(r *reporter, d ast.Decl) {
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recvPath, recvType, method, ok := methodOn(p.Info, call)
			if ok && inPkgs(recvPath, "internal/obs") && obsReadMethods[recvType][method] {
				r.reportf(call.Pos(), "obs.%s.%s reads instrumentation state outside the observability and tool layers; obs data must never feed back into an algorithm", recvType, method)
			}
			return true
		})
	})
}

// TestObsWriteOnly: the rule flags its seeded violation, a V_dd walk that
// stops once its level span has timed 30 s, and every read method, and
// leaves writes, test files, cmd/* and the serving layer alone.
func TestObsWriteOnly(t *testing.T) {
	checkSeeded(t, "obswriteonly", checkObsWriteOnly, "cmosopt/internal/badread", "cmosopt/internal/core", "cmosopt/cmd/tool", "cmosopt/internal/serve")
}

// Package analysis holds the repository's static gates. They are tests, and
// go test ./... runs them; the package has no API.
//
//   - TestReachable (reachable_test.go, over the call graph of
//     reach_test.go) fails on production code that no program reaches and on
//     fields that programs read and never write.
//   - TestInvariants (rules_test.go) runs the rules over the whole module:
//     determinism (no wall-clock read in the deterministic packages),
//     obswriteonly (instrumentation is write-only outside the observability
//     and tool layers) and locksafe (locks released on every path, and no
//     engine evaluation, flush or blocking send under a held lock). Each
//     rule catches a bug that changes results, throughput or liveness only
//     on a slow, long or concurrent run, which no test is; its own test
//     requires it to flag that bug, seeded in its fixture tree.
//
// Both load the module from source through one Loader (loader_test.go),
// which reads the standard library from the go command's export data;
// locksafe reads control flow from a per-function CFG (flow_test.go). The
// module has no dependencies, so all of it is built on go/ast, go/types and
// go/importer.
package analysis

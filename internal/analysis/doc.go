// Package analysis holds the repository's static gates. They are tests, and
// go test ./... runs them; the package has no API.
//
//   - TestReachable (reachable_test.go, over the call graph of
//     reach_test.go) fails on production code that no program reaches and on
//     fields that programs read and never write.
//   - TestInvariants (rules_test.go) runs the rules over the whole module:
//     determinism (no wall-clock read in the deterministic packages) and
//     obswriteonly (instrumentation is write-only outside the observability
//     and tool layers). Each rule catches a bug that changes results only on
//     a slow or long run, which no test is; its own test requires it to flag
//     that bug, seeded in its fixture tree.
//
// Both load the module from source through one Loader (loader_test.go),
// which reads the standard library from the go command's export data. The
// module has no dependencies, so all of it is built on go/ast, go/types and
// go/importer. That no parallel worker or served job waits on another is a
// measured test, TestWorkersNeverBlock in internal/serve, not a rule.
package analysis

// Command cmosvet is the repository's invariant checker: a multichecker over
// the internal/analysis analyzers, each of which catches a bug go test ./...
// misses (determinism, obswriteonly, hotalloc, ctxpoll, locksafe):
//
//	cmosvet ./...                  # every package of the module, CI runs this
//	cmosvet -analyzers ctxpoll ./internal/...
//
// It walks the module from the working directory and loads each package from
// source, with its in-package tests and, as a package of its own, its
// external test package ("package foo_test"); cross-package function facts
// (hotpath, allocates, calls-eval, polls-ctx) are computed by the loader on
// demand. golang.org/x/tools is deliberately not a dependency.
//
// Output is deterministic: diagnostics are merged across analyzers and
// packages and sorted by (file, line, col, analyzer) before printing. -json
// swaps the human lines for a JSON array on stdout (CI archives it as an
// artifact). A deliberate exception is waived in the source with a
// //cmosvet:allow comment (see internal/analysis).
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or internal error.
package main

import (
	"flag"
	"fmt"
	"os"

	"cmosopt/internal/analysis"
)

func main() {
	fs := flag.NewFlagSet("cmosvet", flag.ExitOnError)
	names := fs.String("analyzers", "all", "comma-separated analyzer subset (determinism,obswriteonly,hotalloc,ctxpoll,locksafe) or \"all\"")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout instead of text on stderr")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cmosvet [-analyzers list] [-json] [./... | dir]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		os.Exit(fail(err))
	}
	os.Exit(standalone(fs.Args(), analyzers, *jsonOut))
}

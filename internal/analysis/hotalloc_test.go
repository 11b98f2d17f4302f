package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestHotAlloc(t *testing.T) {
	td := analysistest.Testdata(t, "hotalloc")
	analysistest.Run(t, td, analysis.HotAlloc,
		"cmosopt/internal/eval",    // every alloc construct + allow-span regression
		"cmosopt/internal/circuit", // cross-package fact source; own hotpath body verified
	)
}

func TestCtxPoll(t *testing.T) {
	td := analysistest.Testdata(t, "ctxpoll")
	analysistest.Run(t, td, analysis.CtxPoll,
		"cmosopt/internal/core",  // candidate loops: positives, polls, closures, nesting
		"cmosopt/internal/other", // negative: outside scope
	)
}

func TestLockSafe(t *testing.T) {
	td := analysistest.Testdata(t, "locksafe")
	analysistest.Run(t, td, analysis.LockSafe,
		"cmosopt/internal/cache", // leak/flush/send/eval positives + idiomatic negatives
		"cmosopt/internal/eval",  // clean engine stub
	)
}

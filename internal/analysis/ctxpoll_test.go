package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestCtxPoll(t *testing.T) {
	td := analysistest.Testdata(t, "ctxpoll")
	analysistest.Run(t, td, analysis.CtxPoll,
		"cmosopt/internal/core",  // candidate loops: positives, polls, closures, nesting
		"cmosopt/internal/other", // negative: outside scope
	)
}

package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestLockSafe(t *testing.T) {
	td := analysistest.Testdata(t, "locksafe")
	analysistest.Run(t, td, analysis.LockSafe,
		"cmosopt/internal/cache", // leak/flush/send/eval positives + idiomatic negatives
		"cmosopt/internal/eval",  // clean engine stub
		"cmosopt/internal/serve", // the job-eviction mutant the tests miss
	)
}

package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestObsWriteOnly(t *testing.T) {
	td := analysistest.Testdata(t, "obswriteonly")
	analysistest.Run(t, td, analysis.ObsWriteOnly,
		"cmosopt/internal/badread", // positive: every read method flagged
		"cmosopt/internal/core",    // the walk mutant the tests miss
		"cmosopt/cmd/tool",         // negative: cmd/* may read
		"cmosopt/internal/serve",   // negative: SSE serialization layer may read spans
	)
}

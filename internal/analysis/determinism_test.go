package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestDeterminism(t *testing.T) {
	td := analysistest.Testdata(t, "determinism")
	analysistest.Run(t, td, analysis.Determinism,
		"cmosopt/internal/core",  // positives, the anneal mutant the tests miss, allow
		"cmosopt/internal/other", // negative: outside the deterministic scope
		"cmosopt/internal/serve", // serving layer: clock reads flagged, ticker pacing allowed
	)
}

package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestFloatEq(t *testing.T) {
	td := analysistest.Testdata(t, "floateq")
	analysistest.Run(t, td, analysis.FloatEq,
		"cmosopt/internal/optimize", // positive + sentinel/suppression negatives
		"cmosopt/internal/other",    // negative: outside scope
	)
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName("all")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(all) = %d analyzers, err %v; want 8", len(all), err)
	}
	two, err := analysis.ByName("floateq,determinism")
	if err != nil || len(two) != 2 || two[0].Name != "floateq" || two[1].Name != "determinism" {
		t.Fatalf("ByName(floateq,determinism) = %v, err %v", two, err)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should error")
	}
}

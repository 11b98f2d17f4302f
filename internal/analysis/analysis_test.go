package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
)

func TestByName(t *testing.T) {
	all, err := analysis.ByName("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("ByName(all) = %d analyzers, err %v; want 4", len(all), err)
	}
	two, err := analysis.ByName("locksafe,determinism")
	if err != nil || len(two) != 2 || two[0].Name != "locksafe" || two[1].Name != "determinism" {
		t.Fatalf("ByName(locksafe,determinism) = %v, err %v", two, err)
	}
	if _, err := analysis.ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should error")
	}
}

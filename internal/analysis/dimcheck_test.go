package analysis_test

import (
	"testing"

	"cmosopt/internal/analysis"
	"cmosopt/internal/analysis/analysistest"
)

func TestDimCheck(t *testing.T) {
	td := analysistest.Testdata(t, "dimcheck")
	analysistest.Run(t, td, analysis.DimCheck,
		"cmosopt/internal/physics",  // mismatch/composition/Pow/cross-package/allow
		"cmosopt/internal/devfacts", // cross-package fact source; own body clean
	)
}

// TestDimCheckUnitFacts pins the cmosvet/units/v1 fact table of the fixture's
// device package: the keys and canonical unit strings other packages resolve
// against.
func TestDimCheckUnitFacts(t *testing.T) {
	td := analysistest.Testdata(t, "dimcheck")
	loader := analysis.NewLoader(analysis.Root{Prefix: "", Dir: td + "/src"})
	facts := loader.PackageFacts("cmosopt/internal/devfacts")
	want := map[string]string{
		"ReferenceTempK":         "K",
		"Tech.VTherm":            "V",
		"Tech.Ct":                "F",
		"Tech.IJunc":             "A",
		"Tech.KSat":              "A/V^a",
		"Tech.Alpha":             "1",
		"Tech.IdUnit.param.vgs":  "V",
		"Tech.IdUnit.param.vts":  "V",
		"Tech.IdUnit.return":     "A",
		"Overdrive.param.vgs":    "V",
		"Overdrive.param.vts":    "V",
		"Overdrive.return":       "V",
		"CrossMulti.param.tempK": "", // belongs to physics, not devfacts
	}
	for key, unit := range want {
		got, ok := facts.Units[key]
		if unit == "" {
			if ok {
				t.Errorf("unexpected unit fact %q = %q", key, got)
			}
			continue
		}
		if got != unit {
			t.Errorf("unit fact %q = %q, want %q", key, got, unit)
		}
	}
}

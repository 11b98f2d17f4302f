package netgen

import (
	"fmt"
	"strings"
	"testing"
)

func TestScaleNamesOrdered(t *testing.T) {
	names := ScaleNames()
	if len(names) != 2 || names[0] != "s100k" || names[1] != "s1m" {
		t.Fatalf("ScaleNames() = %v, want [s100k s1m]", names)
	}
}

func TestScaleConfigUnknown(t *testing.T) {
	if _, err := ScaleConfig("s9999x"); err == nil {
		t.Fatal("unknown scale profile accepted")
	}
	if _, err := ScaleProfile("s9999x"); err == nil {
		t.Fatal("unknown scale profile generated")
	}
}

func TestLoadNamedResolvesScaleProfiles(t *testing.T) {
	// Resolution only — generating s100k here would slow every tier-1 run;
	// TestScaleGenerationBounded below covers the real build.
	if _, err := ScaleConfig("s100k"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNamed("definitely-not-a-benchmark"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestCheckName accepts exactly the names LoadNamed resolves, and both
// refuse an unknown name quoting at most maxExcerpt bytes of it.
func TestCheckName(t *testing.T) {
	names := append([]string{"s27", "c17"}, SuiteNames()...)
	names = append(names, Suite85Names()...)
	for _, n := range append(names, ScaleNames()...) {
		if err := CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v", n, err)
		}
	}
	huge := strings.Repeat("é", 1<<19) // 1 MiB of two-byte runes
	if err := CheckName(huge); err == nil || len(err.Error()) > 200 {
		t.Errorf("CheckName(1 MiB name) = %d-byte error, want one under 200", len(fmt.Sprint(err)))
	}
	_, err := LoadNamed(huge)
	if err == nil || !strings.Contains(err.Error(), excerpt(huge)) || strings.Contains(err.Error(), huge[:2*maxExcerpt]) {
		t.Errorf("LoadNamed(1 MiB name) does not quote a bounded excerpt: %d-byte error", len(fmt.Sprint(err)))
	}
}

// TestScaleGenerationBounded generates the full 10⁵-gate profile and checks
// the two scaling contracts of the reworked generator: near-linear time
// (implicitly — the test would blow its timeout with the old quadratic
// pickSource) and bounded allocations per gate (the Fenwick sampler and
// epoch sets must not regress into per-draw garbage).
func TestScaleGenerationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("scale generation in -short")
	}
	cfg, err := ScaleConfig("s100k")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		c, err := ScaleProfile("s100k")
		if err != nil {
			t.Fatal(err)
		}
		if c.N() < cfg.Gates {
			t.Fatalf("generated %d gates, want ≥ %d", c.N(), cfg.Gates)
		}
	})
	perGate := allocs / float64(cfg.Gates)
	t.Logf("s100k generation: %.0f allocs total, %.2f per gate", allocs, perGate)
	if perGate > 20 {
		t.Fatalf("generation allocates %.2f per gate; the samplers should keep this in single digits", perGate)
	}

	// Structural sanity of the generated network at scale.
	c, err := ScaleProfile("s100k")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := c.Combinational()
	if err != nil {
		t.Fatal(err)
	}
	depth, err := cc.Depth()
	if err != nil {
		t.Fatal(err)
	}
	if depth < cfg.Depth/2 || depth > cfg.Depth*2 {
		t.Fatalf("depth %d far from configured %d", depth, cfg.Depth)
	}
}

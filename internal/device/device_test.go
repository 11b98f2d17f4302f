package device

import (
	"math"
	"testing"
	"testing/quick"
)

func tech(t *testing.T) Tech {
	t.Helper()
	tc := Default350()
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	return tc
}

// swing is the model's subthreshold swing in volts per current decade:
// n·vT·ln10/α.
func swing(tc Tech) float64 {
	return tc.N * tc.VTherm * math.Ln10 / tc.Alpha
}

func TestDefaultValidates(t *testing.T) { tech(t) }

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Tech){
		func(x *Tech) { x.Alpha = 0.5 },
		func(x *Tech) { x.Alpha = 2.5 },
		func(x *Tech) { x.KSat = -1 },
		func(x *Tech) { x.IJunc = -1 },
		func(x *Tech) { x.Ct = 0 },
		func(x *Tech) { x.VddMin = 0 },
		func(x *Tech) { x.VddMin = 4 },
		func(x *Tech) { x.VtsMin = -0.1 },
		func(x *Tech) { x.WMin = 0.5 },
		func(x *Tech) { x.WMin = 200 },
		func(x *Tech) { x.N = math.NaN() },
	}
	for i, mut := range mutations {
		tc := Default350()
		mut(&tc)
		if err := tc.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCalibrationAnchors(t *testing.T) {
	tc := tech(t)
	// Strong-inversion drive at the 1997 operating point: ≈200 µA/µm.
	if id := tc.IdUnit(3.3, 0.7); id < 4e-5 || id > 1.5e-4 {
		t.Errorf("Id(3.3,0.7) = %v A, want ~7e-5", id)
	}
	// Off current at the high threshold: picoamps at hot-chip temperature.
	if ioff := tc.IoffUnit(0.7); ioff < 1e-14 || ioff > 1e-10 {
		t.Errorf("Ioff(0.7) = %v A, want ~5e-12", ioff)
	}
	// Off current at a low-power threshold: ~0.1 µA per width unit.
	if ioff := tc.IoffUnit(0.15); ioff < 1e-8 || ioff > 1e-6 {
		t.Errorf("Ioff(0.15) = %v A, want ~1e-7", ioff)
	}
	// Subthreshold swing ≈ 125 mV/dec at hot-chip temperature (incl. the
	// DIBL-like flattening a static-CMOS leakage stack sees).
	if s := swing(tc); s < 0.10 || s > 0.15 {
		t.Errorf("swing = %v V/dec, want ~0.125", s)
	}
}

func TestSwingMatchesIoffRatio(t *testing.T) {
	// Lowering Vts by one swing must raise Ioff by ~10x (away from the
	// junction-leakage floor).
	tc := tech(t)
	s := swing(tc)
	r := tc.IdUnit(0, 0.4-s) / tc.IdUnit(0, 0.4)
	if r < 9 || r > 11 {
		t.Errorf("one-swing Ioff ratio = %v, want ~10", r)
	}
}

func TestAlphaPowerLimit(t *testing.T) {
	// Far above threshold, Id ~ K·(Vgs−Vts)^α.
	tc := tech(t)
	got := tc.IdUnit(3.3, 0.7)
	want := tc.KSat * math.Pow(3.3-0.7, tc.Alpha)
	if rel := math.Abs(got-want) / want; rel > 1e-9 {
		t.Errorf("strong-inversion limit off by %v", rel)
	}
}

func TestOverdriveStableTails(t *testing.T) {
	tc := tech(t)
	if g := tc.Overdrive(100, 0.3); math.IsInf(g, 0) || math.IsNaN(g) {
		t.Errorf("overdrive overflows at large Vgs: %v", g)
	}
	if g := tc.Overdrive(-100, 0.3); g < 0 || math.IsNaN(g) {
		t.Errorf("overdrive broken at very negative Vgs: %v", g)
	}
	if g := tc.Overdrive(0, 5); g <= 0 {
		t.Errorf("overdrive must stay positive, got %v", g)
	}
}

func TestIdMonotoneProperty(t *testing.T) {
	tc := tech(t)
	f := func(aRaw, bRaw, vtsRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 3.3)
		b := math.Mod(math.Abs(bRaw), 3.3)
		vts := 0.1 + math.Mod(math.Abs(vtsRaw), 0.6)
		if a > b {
			a, b = b, a
		}
		// Monotone non-decreasing in Vgs.
		if tc.IdUnit(a, vts) > tc.IdUnit(b, vts)*(1+1e-12) {
			return false
		}
		// Monotone non-increasing in Vts.
		return tc.IdUnit(1.0, a/10+0.1) >= tc.IdUnit(1.0, b/10+0.1)*(1-1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIdContinuousAcrossThreshold(t *testing.T) {
	// No kink near Vgs = Vts: ratio of currents a millivolt apart stays small.
	tc := tech(t)
	vts := 0.4
	prev := tc.IdUnit(vts-0.05, vts)
	for v := vts - 0.049; v < vts+0.05; v += 0.001 {
		cur := tc.IdUnit(v, vts)
		if cur < prev {
			t.Fatalf("current decreased across threshold at %v", v)
		}
		if cur/prev > 1.2 {
			t.Fatalf("current jump %vx at Vgs=%v", cur/prev, v)
		}
		prev = cur
	}
}

func TestIoffIncludesJunctionFloor(t *testing.T) {
	tc := tech(t)
	// At a very high threshold the subthreshold term dies; junction remains.
	if got := tc.IoffUnit(3.0); got < tc.IJunc {
		t.Errorf("Ioff(3.0) = %v < junction floor %v", got, tc.IJunc)
	}
}

func TestSubthresholdCurrentExponential(t *testing.T) {
	// Deep subthreshold: Id(Vgs) rises one decade per swing.
	tc := tech(t)
	s := swing(tc)
	r := tc.IdUnit(0.2+s, 0.6) / tc.IdUnit(0.2, 0.6)
	if r < 9 || r > 11 {
		t.Errorf("subthreshold Vgs decade ratio = %v, want ~10", r)
	}
}

func TestDefault250Scaling(t *testing.T) {
	t250 := Default250()
	if err := t250.Validate(); err != nil {
		t.Fatal(err)
	}
	t350 := Default350()
	// Constant-field scaling expectations.
	if t250.Ct >= t350.Ct || t250.CPD >= t350.CPD {
		t.Error("capacitances should shrink")
	}
	if t250.VddMax >= t350.VddMax {
		t.Error("supply ceiling should drop")
	}
	if t250.KSat <= t350.KSat {
		t.Error("drive per width unit should improve")
	}
	// A same-width inverter-style figure of merit (CV/I at full rail) must
	// improve at the new node.
	fom := func(tc Tech) float64 {
		return tc.Ct * tc.VddMax / tc.IdUnit(tc.VddMax, 0.5)
	}
	if fom(t250) >= fom(t350) {
		t.Errorf("CV/I did not improve: %v vs %v", fom(t250), fom(t350))
	}
}

package antenna

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIsotropic(t *testing.T) {
	var iso Isotropic
	for _, a := range []float64{0, 1, math.Pi} {
		if iso.RolloffDB(a) != 0 {
			t.Errorf("isotropic rolloff at %v != 0", a)
		}
	}
}

func TestPanelBoresight(t *testing.T) {
	p := DefaultPanel()
	if r := p.RolloffDB(0); r != 0 {
		t.Errorf("boresight rolloff = %v", r)
	}
}

func TestPanelHalfPower(t *testing.T) {
	p := DefaultPanel()
	// At half the beamwidth the rolloff is -3 dB by construction.
	r := p.RolloffDB(p.Beamwidth3dB / 2)
	if !approx(r, -3, 1e-9) {
		t.Errorf("half-power rolloff = %v, want -3", r)
	}
}

func TestPanelFloor(t *testing.T) {
	p := DefaultPanel()
	r := p.RolloffDB(math.Pi)
	if !approx(r, -p.FrontToBackDB, 1e-9) {
		t.Errorf("back-lobe rolloff = %v, want %v", r, -p.FrontToBackDB)
	}
}

func TestPanelSymmetric(t *testing.T) {
	p := DefaultPanel()
	for _, a := range []float64{0.1, 0.5, 1.0} {
		if p.RolloffDB(a) != p.RolloffDB(-a) {
			t.Errorf("asymmetric rolloff at %v", a)
		}
	}
}

// Property: rolloff is non-positive and monotone within the main lobe.
func TestQuickPanelMonotone(t *testing.T) {
	p := DefaultPanel()
	f := func(raw uint8) bool {
		a := float64(raw) / 255 * math.Pi
		r := p.RolloffDB(a)
		if r > 0 {
			return false
		}
		r2 := p.RolloffDB(a + 0.01)
		return r2 <= r+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMountRolloffTo(t *testing.T) {
	m := Mount{Pattern: DefaultPanel(), Boresight: geom.V3(0, 0, -1)}
	ant := geom.V3(0, 0, 1)
	// Tag straight below: boresight, zero rolloff.
	if r := m.RolloffTo(ant, geom.V3(0, 0, 0)); !approx(r, 0, 1e-9) {
		t.Errorf("boresight tag rolloff = %v", r)
	}
	// Tag 45° off axis rolls off more than one 10° off.
	r45 := m.RolloffTo(ant, geom.V3(1, 0, 0))
	r10 := m.RolloffTo(ant, geom.V3(math.Tan(10*math.Pi/180), 0, 0))
	if !(r45 < r10 && r10 < 0) {
		t.Errorf("rolloffs: 45°=%v 10°=%v", r45, r10)
	}
}

func TestMountDegenerate(t *testing.T) {
	m := Mount{Pattern: DefaultPanel(), Boresight: geom.V3(0, 0, -1)}
	p := geom.V3(1, 2, 3)
	if r := m.RolloffTo(p, p); r != 0 {
		t.Errorf("coincident rolloff = %v", r)
	}
	var none Mount
	if r := none.RolloffTo(geom.V3(0, 0, 0), p); r != 0 {
		t.Errorf("nil pattern rolloff = %v", r)
	}
}

func TestMountNonUnitBoresight(t *testing.T) {
	m1 := Mount{Pattern: DefaultPanel(), Boresight: geom.V3(0, 0, -1)}
	m2 := Mount{Pattern: DefaultPanel(), Boresight: geom.V3(0, 0, -9)}
	ant := geom.V3(0, 0, 1)
	tag := geom.V3(0.5, 0.2, 0)
	if !approx(m1.RolloffTo(ant, tag), m2.RolloffTo(ant, tag), 1e-12) {
		t.Error("boresight normalization broken")
	}
}

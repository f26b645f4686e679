package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVec3Arithmetic(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)
	if got := a.Add(b); got != V3(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !approx(got, 4-10+18) {
		t.Errorf("Dot = %v", got)
	}
}

func TestVec3Norm(t *testing.T) {
	if got := V3(3, 4, 0).Norm(); !approx(got, 5) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := V3(1, 2, 2).Norm(); !approx(got, 3) {
		t.Errorf("Norm = %v, want 3", got)
	}
}

func TestVec3Dist(t *testing.T) {
	if got := V3(1, 1, 1).Dist(V3(4, 5, 1)); !approx(got, 5) {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestVec3Unit(t *testing.T) {
	u := V3(0, 0, 7).Unit()
	if !approx(u.Norm(), 1) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	z := V3(0, 0, 0).Unit()
	if z != V3(0, 0, 0) {
		t.Errorf("Unit of zero = %v", z)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, -10, 4)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != V3(5, -5, 2) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVec2Basics(t *testing.T) {
	a := V2(3, 4)
	if !approx(a.Norm(), 5) {
		t.Errorf("Norm = %v", a.Norm())
	}
	if got := a.In3D(2); got != V3(3, 4, 2) {
		t.Errorf("In3D = %v", got)
	}
	if got := a.Sub(V2(1, 1)); got != V2(2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Add(V2(1, 1)); got != V2(4, 5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(2); got != V2(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dist(V2(0, 0)); !approx(got, 5) {
		t.Errorf("Dist = %v", got)
	}
	if got := a.Dot(V2(2, 1)); !approx(got, 10) {
		t.Errorf("Dot = %v", got)
	}
}

func TestSegmentAtAndLength(t *testing.T) {
	s := Segment{A: V3(0, 0, 0), B: V3(10, 0, 0)}
	if got := s.At(0.3); !approx(got.X, 3) {
		t.Errorf("At(0.3) = %v", got)
	}
}

func TestPlaneMirror(t *testing.T) {
	floor := Plane{Point: V3(0, 0, 0), Normal: V3(0, 0, 1)}
	got := floor.Mirror(V3(2, 3, 5))
	if got != V3(2, 3, -5) {
		t.Errorf("Mirror = %v, want (2,3,-5)", got)
	}
	// Mirroring twice is the identity.
	back := floor.Mirror(got)
	if back != V3(2, 3, 5) {
		t.Errorf("double Mirror = %v", back)
	}
}

func TestPlaneMirrorNonUnitNormal(t *testing.T) {
	// Normal is normalized internally.
	pl := Plane{Point: V3(0, 0, 1), Normal: V3(0, 0, 10)}
	got := pl.Mirror(V3(0, 0, 3))
	if !approx(got.Z, -1) {
		t.Errorf("Mirror Z = %v, want -1", got.Z)
	}
}

func TestPlaneSignedDist(t *testing.T) {
	pl := Plane{Point: V3(0, 0, 2), Normal: V3(0, 0, 2)}
	if d := pl.SignedDist(V3(0, 0, 5)); !approx(d, 3) {
		t.Errorf("SignedDist = %v, want 3", d)
	}
	if d := pl.SignedDist(V3(0, 0, 0)); !approx(d, -2) {
		t.Errorf("SignedDist = %v, want -2", d)
	}
}

// Property: |v.Unit()| == 1 for non-zero v.
func TestQuickUnitNorm(t *testing.T) {
	f := func(x, y, z float64) bool {
		v := V3(x, y, z)
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) ||
			math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		n := v.Norm()
		if n == 0 || math.IsInf(n, 0) {
			return true
		}
		return math.Abs(v.Unit().Norm()-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz int16) bool {
		a := V3(float64(ax), float64(ay), float64(az))
		b := V3(float64(bx), float64(by), float64(bz))
		c := V3(float64(cx), float64(cy), float64(cz))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mirroring across a plane preserves distance to the plane.
func TestQuickMirrorPreservesDistance(t *testing.T) {
	pl := Plane{Point: V3(0, 0, 0), Normal: V3(0, 1, 0)}
	f := func(x, y, z int16) bool {
		p := V3(float64(x), float64(y), float64(z))
		m := pl.Mirror(p)
		return math.Abs(math.Abs(pl.SignedDist(p))-math.Abs(pl.SignedDist(m))) < eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentAtEndpoints(t *testing.T) {
	s := Segment{A: V3(1, 2, 3), B: V3(4, 5, 6)}
	if got := s.At(0); got != s.A {
		t.Errorf("At(0) = %v", got)
	}
	if got := s.At(1); got != s.B {
		t.Errorf("At(1) = %v", got)
	}
}

func TestStringFormats(t *testing.T) {
	if s := V3(1, 2, 3).String(); s != "(1.000, 2.000, 3.000)" {
		t.Errorf("Vec3.String = %q", s)
	}
	if s := V2(1.5, -2).String(); s != "(1.500, -2.000)" {
		t.Errorf("Vec2.String = %q", s)
	}
}

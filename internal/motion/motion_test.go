package motion

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStatic(t *testing.T) {
	s := Static{P: geom.V3(1, 2, 3)}
	if s.PositionAt(0) != s.P || s.PositionAt(100) != s.P {
		t.Error("static moved")
	}
	if !math.IsInf(s.Duration(), 1) {
		t.Error("static duration should be +Inf")
	}
}

func TestLinear(t *testing.T) {
	l, err := NewLinear(geom.V3(0, 0, 1), geom.V3(3, 0, 1), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(l.Duration(), 30, 1e-9) {
		t.Errorf("Duration = %v, want 30", l.Duration())
	}
	p := l.PositionAt(15)
	if !approx(p.X, 1.5, 1e-9) {
		t.Errorf("midpoint = %v", p)
	}
	// Clamping.
	if got := l.PositionAt(-5); got != l.From {
		t.Errorf("before start = %v", got)
	}
	if got := l.PositionAt(1e6); got != l.To {
		t.Errorf("after end = %v", got)
	}
}

func TestNewLinearErrors(t *testing.T) {
	if _, err := NewLinear(geom.V3(0, 0, 0), geom.V3(1, 0, 0), 0); err == nil {
		t.Error("want error for zero speed")
	}
	if _, err := NewLinear(geom.V3(1, 1, 1), geom.V3(1, 1, 1), 1); err == nil {
		t.Error("want error for zero-length path")
	}
}

func TestManualPushReachesEnd(t *testing.T) {
	from, to := geom.V3(0, 0, 1), geom.V3(3, 0, 1)
	m, err := NewManualPush(from, to, 0.3, DefaultManualPushParams(1))
	if err != nil {
		t.Fatal(err)
	}
	end := m.PositionAt(m.Duration())
	if !approx(end.X, 3, 1e-6) {
		t.Errorf("end position = %v", end)
	}
	if start := m.PositionAt(0); !approx(start.X, 0, 1e-9) {
		t.Errorf("start position = %v", start)
	}
}

func TestManualPushMonotone(t *testing.T) {
	m, err := NewManualPush(geom.V3(0, 0, 1), geom.V3(3, 0, 1), 0.3, DefaultManualPushParams(2))
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for tt := 0.0; tt <= m.Duration(); tt += 0.05 {
		x := m.PositionAt(tt).X
		if x < prev-1e-9 {
			t.Fatalf("cart moved backwards at t=%v", tt)
		}
		prev = x
	}
}

func TestManualPushActuallyJitters(t *testing.T) {
	m, err := NewManualPush(geom.V3(0, 0, 1), geom.V3(3, 0, 1), 0.3, DefaultManualPushParams(3))
	if err != nil {
		t.Fatal(err)
	}
	// Instantaneous speed by a central difference over the straight path.
	const h = 0.02
	var speeds []float64
	for tt := 0.5; tt < m.Duration()-0.5; tt += 0.1 {
		speeds = append(speeds, m.PositionAt(tt+h/2).Dist(m.PositionAt(tt-h/2))/h)
	}
	var minS, maxS = speeds[0], speeds[0]
	for _, s := range speeds {
		minS = math.Min(minS, s)
		maxS = math.Max(maxS, s)
	}
	if maxS-minS < 0.05 {
		t.Errorf("speed barely varies: [%v, %v]", minS, maxS)
	}
	// Duration should differ from the nominal 10 s (3 m at 0.3 m/s) —
	// that is exactly the warping DTW must fix.
	if approx(m.Duration(), 10, 1e-3) {
		t.Errorf("jittered duration suspiciously exact: %v", m.Duration())
	}
}

func TestManualPushDeterministic(t *testing.T) {
	p := DefaultManualPushParams(42)
	m1, _ := NewManualPush(geom.V3(0, 0, 1), geom.V3(2, 0, 1), 0.3, p)
	m2, _ := NewManualPush(geom.V3(0, 0, 1), geom.V3(2, 0, 1), 0.3, p)
	if m1.Duration() != m2.Duration() {
		t.Error("not deterministic")
	}
	if m1.PositionAt(1.5) != m2.PositionAt(1.5) {
		t.Error("positions diverge")
	}
}

func TestManualPushParamErrors(t *testing.T) {
	from, to := geom.V3(0, 0, 0), geom.V3(1, 0, 0)
	if _, err := NewManualPush(from, to, 0.3, ManualPushParams{JitterFrac: -0.1, CorrTime: 1}); err == nil {
		t.Error("want error for negative jitter")
	}
	if _, err := NewManualPush(from, to, 0.3, ManualPushParams{JitterFrac: 1.5, CorrTime: 1}); err == nil {
		t.Error("want error for jitter >= 1")
	}
	if _, err := NewManualPush(from, to, 0.3, ManualPushParams{JitterFrac: 0.2, CorrTime: 0}); err == nil {
		t.Error("want error for zero corr time")
	}
	if _, err := NewManualPush(from, from, 0.3, DefaultManualPushParams(1)); err == nil {
		t.Error("want error for zero path")
	}
}

func TestConveyor(t *testing.T) {
	c := Conveyor{
		Start:      geom.V3(0, 0, 0),
		Dir:        geom.V3(1, 0, 0),
		Speed:      0.3,
		LaunchAt:   2,
		TravelDist: 3,
	}
	if got := c.PositionAt(0); got != c.Start {
		t.Errorf("before launch = %v", got)
	}
	if got := c.PositionAt(2); got != c.Start {
		t.Errorf("at launch = %v", got)
	}
	p := c.PositionAt(4) // 2 s after launch: 0.6 m
	if !approx(p.X, 0.6, 1e-9) {
		t.Errorf("position = %v", p)
	}
	// Clamps at end of belt.
	end := c.PositionAt(1e6)
	if !approx(end.X, 3, 1e-9) {
		t.Errorf("end = %v", end)
	}
	if !approx(c.Duration(), 12, 1e-9) {
		t.Errorf("Duration = %v, want 12", c.Duration())
	}
}

func TestConveyorNormalizesDir(t *testing.T) {
	c := Conveyor{Start: geom.V3(0, 0, 0), Dir: geom.V3(10, 0, 0), Speed: 1, TravelDist: 100}
	p := c.PositionAt(1)
	if !approx(p.X, 1, 1e-9) {
		t.Errorf("dir not normalized: %v", p)
	}
}

func TestConveyorZeroSpeed(t *testing.T) {
	c := Conveyor{Start: geom.V3(1, 1, 1), Dir: geom.V3(1, 0, 0), Speed: 0, LaunchAt: 1}
	if got := c.PositionAt(100); got != c.Start {
		t.Errorf("zero-speed belt moved: %v", got)
	}
	if d := c.Duration(); d != 1 {
		t.Errorf("Duration = %v", d)
	}
}

func TestInterpEdgeCases(t *testing.T) {
	if got := interp(nil, nil, 1); got != 0 {
		t.Errorf("empty interp = %v", got)
	}
	xs := []float64{1, 1, 2}
	ys := []float64{5, 6, 7}
	// Duplicate knots must not divide by zero.
	got := interp(xs, ys, 1)
	if math.IsNaN(got) {
		t.Error("interp NaN at duplicate knot")
	}
}

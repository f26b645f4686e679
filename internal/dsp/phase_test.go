package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{TwoPi, 0},
		{TwoPi + 1, 1},
		{-1, TwoPi - 1},
		{-TwoPi, 0},
		{3 * TwoPi, 0},
		{-5*TwoPi + 2, 2},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); !approx(got, c.want, 1e-9) {
			t.Errorf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQuickWrapPhaseRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		w := WrapPhase(x)
		return w >= 0 && w < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnwrapRamp(t *testing.T) {
	// A steadily increasing true phase wrapped into [0,2π) must unwrap to a
	// monotone ramp.
	var wrapped []float64
	for i := 0; i < 200; i++ {
		wrapped = append(wrapped, WrapPhase(float64(i)*0.3))
	}
	un := Unwrap(wrapped)
	for i := 1; i < len(un); i++ {
		if un[i] <= un[i-1] {
			t.Fatalf("unwrapped not monotone at %d: %v <= %v", i, un[i], un[i-1])
		}
		if !approx(un[i]-un[i-1], 0.3, 1e-9) {
			t.Fatalf("step %d = %v, want 0.3", i, un[i]-un[i-1])
		}
	}
}

func TestUnwrapVShape(t *testing.T) {
	// Phase decreasing then increasing (the V-zone pattern).
	truth := func(i int) float64 { return math.Abs(float64(i)-50) * 0.2 }
	var wrapped []float64
	for i := 0; i <= 100; i++ {
		wrapped = append(wrapped, WrapPhase(truth(i)))
	}
	un := Unwrap(wrapped)
	// Offset is unknown; compare differences.
	for i := 1; i < len(un); i++ {
		want := truth(i) - truth(i-1)
		if !approx(un[i]-un[i-1], want, 1e-9) {
			t.Fatalf("step %d = %v, want %v", i, un[i]-un[i-1], want)
		}
	}
}

func TestUnwrapEmptyAndSingle(t *testing.T) {
	if got := Unwrap(nil); len(got) != 0 {
		t.Errorf("Unwrap(nil) len = %d", len(got))
	}
	if got := Unwrap([]float64{1.5}); len(got) != 1 || got[0] != 1.5 {
		t.Errorf("Unwrap single = %v", got)
	}
}

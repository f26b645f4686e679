package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitQuadraticExact(t *testing.T) {
	// y = 2x^2 - 3x + 1
	want := Quadratic{A: 2, B: -3, C: 1}
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = want.Eval(x)
	}
	got, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got.A, want.A, 1e-9) || !approx(got.B, want.B, 1e-9) || !approx(got.C, want.C, 1e-9) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFitQuadraticVertex(t *testing.T) {
	q := Quadratic{A: 1, B: -4, C: 7}
	if v := q.VertexX(); !approx(v, 2, 1e-12) {
		t.Errorf("VertexX = %v, want 2", v)
	}
	if v := q.VertexY(); !approx(v, 3, 1e-12) {
		t.Errorf("VertexY = %v, want 3", v)
	}
	if !q.OpensUpward() {
		t.Error("OpensUpward = false, want true")
	}
	line := Quadratic{A: 0, B: 1, C: 0}
	if !math.IsNaN(line.VertexX()) || !math.IsNaN(line.VertexY()) {
		t.Error("vertex of degenerate quadratic should be NaN")
	}
}

func TestFitQuadraticNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := Quadratic{A: 0.5, B: 2, C: -1}
	var xs, ys []float64
	for x := -5.0; x <= 5; x += 0.1 {
		xs = append(xs, x)
		ys = append(ys, want.Eval(x)+rng.NormFloat64()*0.01)
	}
	got, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got.VertexX(), want.VertexX(), 0.01) {
		t.Errorf("vertex %v, want %v", got.VertexX(), want.VertexX())
	}
}

func TestFitQuadraticLargeOffsets(t *testing.T) {
	// Times in milliseconds around 5000 — the centering must keep the normal
	// equations well conditioned.
	want := Quadratic{A: 1e-6, B: -0.01, C: 30}
	var xs, ys []float64
	for x := 4000.0; x <= 6000; x += 10 {
		xs = append(xs, x)
		ys = append(ys, want.Eval(x))
	}
	got, err := FitQuadratic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got.VertexX(), want.VertexX(), 1e-3) {
		t.Errorf("vertex %v, want %v", got.VertexX(), want.VertexX())
	}
}

func TestFitQuadraticErrors(t *testing.T) {
	if _, err := FitQuadratic([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Error("want error for underdetermined fit")
	}
	if _, err := FitQuadratic([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	// All x identical -> singular.
	if _, err := FitQuadratic([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("want error for singular system")
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	c, err := FitPolynomial(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, b := c[1], c[0]
	if !approx(m, 2, 1e-9) || !approx(b, 1, 1e-9) {
		t.Errorf("m=%v b=%v, want 2,1", m, b)
	}
}

func TestFitPolynomialCubic(t *testing.T) {
	// y = x^3 - x
	f := func(x float64) float64 { return x*x*x - x }
	var xs, ys []float64
	for x := -3.0; x <= 3; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	c, err := FitPolynomial(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, -1, 0, 1}
	for i := range want {
		if !approx(c[i], want[i], 1e-8) {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestFitPolynomialDegreeZero(t *testing.T) {
	c, err := FitPolynomial([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(c[0], 6, 1e-9) {
		t.Errorf("constant fit = %v, want 6", c[0])
	}
}

func TestFitPolynomialNegativeDegree(t *testing.T) {
	if _, err := FitPolynomial([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("want error for negative degree")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !approx(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("want singular error")
	}
}

func TestSolveLinearBadDims(t *testing.T) {
	if _, err := SolveLinear(nil, nil); err == nil {
		t.Error("want error for empty system")
	}
	if _, err := SolveLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("want error for non-square system")
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if r := RSquared(obs, obs); !approx(r, 1, 1e-12) {
		t.Errorf("perfect fit R^2 = %v", r)
	}
	pred := []float64{2.5, 2.5, 2.5, 2.5} // the mean
	if r := RSquared(obs, pred); !approx(r, 0, 1e-12) {
		t.Errorf("mean-fit R^2 = %v", r)
	}
	if r := RSquared(obs, []float64{1, 2}); !math.IsNaN(r) {
		t.Errorf("mismatched R^2 = %v, want NaN", r)
	}
}

// Property: fitting a quadratic to exact quadratic data recovers the vertex.
func TestQuickQuadraticVertexRecovery(t *testing.T) {
	f := func(a8, b8, c8 int8) bool {
		a := float64(a8)/16 + 0.5 // keep a > 0 and bounded
		if a <= 0 {
			a = 0.5
		}
		b := float64(b8) / 8
		c := float64(c8) / 8
		q := Quadratic{A: a, B: b, C: c}
		var xs, ys []float64
		for x := -4.0; x <= 4; x += 0.5 {
			xs = append(xs, x)
			ys = append(ys, q.Eval(x))
		}
		got, err := FitQuadratic(xs, ys)
		if err != nil {
			return false
		}
		return approx(got.VertexX(), q.VertexX(), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadraticString(t *testing.T) {
	s := Quadratic{A: 1, B: -2, C: 3}.String()
	if s == "" {
		t.Error("empty String()")
	}
}

// Package dsp provides the numeric and signal-processing primitives STPP
// needs: least-squares polynomial fitting, phase unwrapping, smoothing
// filters, interpolation/resampling, and summary statistics.
//
// The repro target has no external numeric dependencies, so everything here
// is implemented from scratch on float64 slices using only the standard
// library.
package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnderdetermined is returned when a fit is requested with fewer samples
// than coefficients.
var ErrUnderdetermined = errors.New("dsp: not enough samples for fit")

// ErrSingular is returned when the normal equations of a least-squares fit
// are numerically singular (e.g. all x values identical).
var ErrSingular = errors.New("dsp: singular system")

// Quadratic is a parabola y = A*x^2 + B*x + C.
type Quadratic struct {
	A, B, C float64
}

// Eval evaluates the quadratic at x.
func (q Quadratic) Eval(x float64) float64 { return (q.A*x+q.B)*x + q.C }

// VertexX returns the x coordinate of the extremum. For A == 0 it returns
// NaN since a line has no vertex.
func (q Quadratic) VertexX() float64 {
	if q.A == 0 {
		return math.NaN()
	}
	return -q.B / (2 * q.A)
}

// VertexY returns the value at the extremum.
func (q Quadratic) VertexY() float64 {
	x := q.VertexX()
	if math.IsNaN(x) {
		return math.NaN()
	}
	return q.Eval(x)
}

// Opens reports whether the parabola opens upward (a proper "V" shape).
func (q Quadratic) OpensUpward() bool { return q.A > 0 }

// String implements fmt.Stringer.
func (q Quadratic) String() string {
	return fmt.Sprintf("%.6gx^2 %+.6gx %+.6g", q.A, q.B, q.C)
}

// FitQuadratic fits y = A x^2 + B x + C to the samples by least squares.
// xs and ys must have equal length >= 3. The fit is performed around the
// mean of xs for numerical stability (the returned coefficients are in the
// original coordinates).
//
// This is FitPolynomial(xs, ys, 2) specialized to stack arrays: the X-key
// stage runs one fit per tag per snapshot, and the generic path's dozen
// small slice allocations (power sums, normal equations, solver copies)
// dominated the snapshot-cadence allocation profile. Every arithmetic
// operation runs in the same order as the generic path, so the result is
// bit-identical (asserted by TestFitQuadraticMatchesPolynomial).
func FitQuadratic(xs, ys []float64) (Quadratic, error) {
	if len(xs) != len(ys) {
		return Quadratic{}, fmt.Errorf("dsp: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 3 {
		return Quadratic{}, ErrUnderdetermined
	}

	mean := Mean(xs)
	var sums [5]float64 // power sums S_m = Σ (x_i - mean)^m, m = 0..4
	var aty [3]float64
	for idx, x := range xs {
		xc := x - mean
		p := 1.0
		for m := 0; m <= 4; m++ {
			sums[m] += p
			if m < 3 {
				aty[m] += p * ys[idx]
			}
			p *= xc
		}
	}
	var a [3][3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a[i][j] = sums[i+j]
		}
	}

	// Gaussian elimination with partial pivoting — SolveLinear's exact
	// arithmetic on the 3×3 system, minus its defensive copies.
	x := aty
	for col := 0; col < 3; col++ {
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < 3; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return Quadratic{}, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		x[col], x[piv] = x[piv], x[col]

		inv := 1 / a[col][col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for i := 2; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < 3; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}

	// Shift back from the centered coordinates (binomial expansion, same
	// association as the generic path).
	var out [3]float64
	for i := 0; i < 3; i++ {
		c := x[i]
		b := 1.0
		for j := 0; j <= i; j++ {
			if j > 0 {
				b = b * float64(i-j+1) / float64(j)
			}
			out[j] += c * b * math.Pow(-mean, float64(i-j))
		}
	}
	return Quadratic{A: out[2], B: out[1], C: out[0]}, nil
}

// FitPolynomial fits a polynomial of the given degree by least squares and
// returns the coefficients c[0..degree] such that
// y = c[0] + c[1] x + ... + c[degree] x^degree.
//
// The system is solved via the normal equations with Gaussian elimination
// and partial pivoting, after centering x on its mean for conditioning.
func FitPolynomial(xs, ys []float64, degree int) ([]float64, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, fmt.Errorf("dsp: len(xs)=%d != len(ys)=%d", n, len(ys))
	}
	if degree < 0 {
		return nil, fmt.Errorf("dsp: negative degree %d", degree)
	}
	if n < degree+1 {
		return nil, ErrUnderdetermined
	}

	mean := Mean(xs)
	k := degree + 1

	// Normal equations: (X^T X) c = X^T y with X_{ij} = (x_i - mean)^j.
	// X^T X only depends on the power sums S_m = Σ (x_i - mean)^m.
	sums := make([]float64, 2*degree+1)
	aty := make([]float64, k)
	for idx, x := range xs {
		xc := x - mean
		p := 1.0
		for m := 0; m <= 2*degree; m++ {
			sums[m] += p
			if m < k {
				aty[m] += p * ys[idx]
			}
			p *= xc
		}
	}
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			ata[i][j] = sums[i+j]
		}
	}

	centered, err := SolveLinear(ata, aty)
	if err != nil {
		return nil, err
	}

	// Shift back: p(x) = sum centered[i] (x-mean)^i -> expand binomially.
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		// centered[i] * (x - mean)^i contributes to powers 0..i.
		c := centered[i]
		// binomial expansion
		b := 1.0 // C(i, j) running value
		for j := 0; j <= i; j++ {
			if j > 0 {
				b = b * float64(i-j+1) / float64(j)
			}
			out[j] += c * b * math.Pow(-mean, float64(i-j))
		}
	}
	return out, nil
}

// SolveLinear solves the dense linear system A x = b in place using Gaussian
// elimination with partial pivoting. A and b are not modified.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("dsp: bad system dimensions %dx%d", n, len(b))
	}
	// Copy.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("dsp: row %d has %d cols, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// RSquared computes the coefficient of determination of predictions given
// observed values. Returns 1 for a perfect fit; can be negative for fits
// worse than the mean.
func RSquared(observed, predicted []float64) float64 {
	if len(observed) != len(predicted) || len(observed) == 0 {
		return math.NaN()
	}
	mean := Mean(observed)
	var ssRes, ssTot float64
	for i := range observed {
		d := observed[i] - predicted[i]
		ssRes += d * d
		m := observed[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

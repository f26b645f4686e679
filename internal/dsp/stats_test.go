package dsp

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v", m)
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2}
	min, max := MinMax(xs)
	if min != -9 || max != 5 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
	if i := ArgMin(xs); i != 5 {
		t.Errorf("ArgMin = %d", i)
	}
	if i := ArgMax(xs); i != 4 {
		t.Errorf("ArgMax = %d", i)
	}
	if i := ArgMin(nil); i != -1 {
		t.Errorf("ArgMin(nil) = %d", i)
	}
	if i := ArgMax(nil); i != -1 {
		t.Errorf("ArgMax(nil) = %d", i)
	}
}

func TestMinMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinMax(nil) should panic")
		}
	}()
	MinMax(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if m := Median([]float64{1, 2, 3, 100}); !approx(m, 2.5, 1e-12) {
		t.Errorf("Median = %v", m)
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 50); !approx(got, 3, 1e-12) {
		t.Errorf("median of unsorted = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestBox(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := Box(xs)
	if b.Min != 1 || b.Max != 8 || b.N != 8 {
		t.Errorf("Box extremes = %+v", b)
	}
	if !approx(b.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v", b.Median)
	}
	if !approx(b.IQR, b.Q3-b.Q1, 1e-12) {
		t.Errorf("IQR inconsistent: %v vs %v", b.IQR, b.Q3-b.Q1)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 {
		t.Errorf("quartiles out of order: %+v", b)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{3, 1, 2}
	cdf := CDF(xs)
	if len(cdf) != 3 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].Value != 1 || !approx(cdf[0].P, 1.0/3, 1e-12) {
		t.Errorf("cdf[0] = %+v", cdf[0])
	}
	if cdf[2].Value != 3 || !approx(cdf[2].P, 1, 1e-12) {
		t.Errorf("cdf[2] = %+v", cdf[2])
	}
	if got := CDF(nil); got != nil {
		t.Errorf("CDF(nil) = %v", got)
	}
}

// Property: CDF is monotone nondecreasing in both value and probability.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		cdf := CDF(xs)
		for i := 1; i < len(cdf); i++ {
			if cdf[i].Value < cdf[i-1].Value || cdf[i].P < cdf[i-1].P {
				return false
			}
		}
		return cdf[len(cdf)-1].P == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int8, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(p1) / 255 * 100
		b := float64(p2) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		min, max := MinMax(xs)
		return pa <= pb+1e-9 && pa >= min-1e-9 && pb <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Box quartiles are consistent with sorted order statistics.
func TestQuickBoxOrdering(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		b := Box(xs)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return b.Min == s[0] && b.Max == s[len(s)-1] &&
			b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

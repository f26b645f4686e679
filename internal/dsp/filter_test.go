package dsp

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(xs, 3)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !approx(got[i], want[i], 1e-12) {
			t.Errorf("MA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMovingAverageWidthOne(t *testing.T) {
	xs := []float64{3, 1, 4}
	got := MovingAverage(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("width-1 MA changed data at %d", i)
		}
	}
}

func TestMedianFilterImpulse(t *testing.T) {
	xs := []float64{1, 1, 100, 1, 1}
	got := MedianFilterRangeTo(nil, xs, 3, 0)
	if got[2] != 1 {
		t.Errorf("median filter did not remove impulse: %v", got)
	}
}

func TestMedianFilterEvenWindowAtEdge(t *testing.T) {
	xs := []float64{1, 3}
	got := MedianFilterRangeTo(nil, xs, 3, 0)
	// Edge windows have 2 elements; median of {1,3} is 2.
	if !approx(got[0], 2, 1e-12) || !approx(got[1], 2, 1e-12) {
		t.Errorf("edge medians = %v", got)
	}
}

func TestMedianFilterWidthOne(t *testing.T) {
	xs := []float64{5, 6}
	got := MedianFilterRangeTo(nil, xs, 1, 0)
	if got[0] != 5 || got[1] != 6 {
		t.Errorf("width-1 median = %v", got)
	}
}

func TestInterp1(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, 0}
	cases := []struct{ x, want float64 }{
		{-1, 0},  // clamp left
		{3, 0},   // clamp right
		{0.5, 5}, // interior
		{1, 10},  // exact knot
		{1.25, 7.5},
	}
	for _, c := range cases {
		if got := Interp1(xs, ys, c.x); !approx(got, c.want, 1e-12) {
			t.Errorf("Interp1(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestInterp1Empty(t *testing.T) {
	if got := Interp1(nil, nil, 1); got != 0 {
		t.Errorf("Interp1 empty = %v", got)
	}
}

func TestResample(t *testing.T) {
	xs := []float64{0, 2}
	ys := []float64{0, 4}
	times, values := Resample(xs, ys, 5)
	wantT := []float64{0, 0.5, 1, 1.5, 2}
	wantV := []float64{0, 1, 2, 3, 4}
	for i := range wantT {
		if !approx(times[i], wantT[i], 1e-12) || !approx(values[i], wantV[i], 1e-12) {
			t.Errorf("Resample[%d] = (%v,%v), want (%v,%v)", i, times[i], values[i], wantT[i], wantV[i])
		}
	}
}

func TestResampleDegenerate(t *testing.T) {
	times, values := Resample(nil, nil, 3)
	if len(times) != 3 || len(values) != 3 {
		t.Errorf("lens = %d,%d", len(times), len(values))
	}
	times, values = Resample([]float64{1}, []float64{9}, 1)
	if times[0] != 1 || values[0] != 9 {
		t.Errorf("single = (%v,%v)", times[0], values[0])
	}
}

func TestDownsample(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6}
	got := Downsample(xs, 3)
	want := []float64{0, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Downsample[%d] = %v", i, got[i])
		}
	}
	if got := Downsample(xs, 1); len(got) != len(xs) {
		t.Errorf("k=1 len = %d", len(got))
	}
}

// Property: moving average output is bounded by input min/max.
func TestQuickMovingAverageBounds(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		min, max := MinMax(xs)
		for _, v := range MovingAverage(xs, 5) {
			if v < min-1e-9 || v > max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: median filter output values are drawn from percentiles of the
// window, hence bounded by input range.
func TestQuickMedianFilterBounds(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		min, max := MinMax(xs)
		for _, v := range MedianFilterRangeTo(nil, xs, 5, 0) {
			if v < min || v > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: resuming the median filter across arbitrary append-only growth
// steps reproduces the one-shot filter bit-for-bit — the contract the
// incremental V-zone refinement relies on.
func TestQuickMedianFilterRangeResume(t *testing.T) {
	const width = 5
	f := func(raw []int8, cuts []uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		var got []float64
		n0 := 0
		for _, c := range cuts {
			n := n0 + int(c)%7 + 1
			if n > len(xs) {
				n = len(xs)
			}
			got = MedianFilterRangeTo(got[:n0], xs[:n], width, n0-width/2)
			n0 = n
		}
		got = MedianFilterRangeTo(got[:n0], xs, width, n0-width/2)
		want := MedianFilterRangeTo(nil, xs, width, 0)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sortedMedianFilter is the reference median filter: each edge-truncated
// window copied and sorted with sort.Float64s, its middle value (or the
// mean of its two middle values) taken. It shares no code with the
// filter's insertion sort or median5, and agrees with them bit for bit on
// finite inputs without signed zeros.
func sortedMedianFilter(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	half := max(width, 1) / 2
	for i := range xs {
		w := slices.Clone(xs[max(i-half, 0):min(i+half+1, len(xs))])
		sort.Float64s(w)
		if m := len(w); m%2 == 1 {
			out[i] = w[m/2]
		} else {
			out[i] = (w[m/2-1] + w[m/2]) / 2
		}
	}
	return out
}

// Property: the median filter matches the sort-based reference for every
// width from 1 to 9 — the default width's median5 path, the insertion
// sort of other full windows and every truncated edge window.
func TestQuickMedianFilterMatchesSortReference(t *testing.T) {
	f := func(raw []int8, w uint8) bool {
		width := int(w)%9 + 1
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		return slices.Equal(MedianFilterRangeTo(nil, xs, width, 0), sortedMedianFilter(xs, width))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMedian5MatchesInsertionSort pins the unrolled median-of-5 fast
// path bit-for-bit against the insertion sort it replaces, over operands
// that exercise every edge the unrolling must preserve: NaN (unordered
// compares stop insertion early), ±0.0 ties (stable order decides which
// zero is the middle), infinities, and duplicates.
func TestMedian5MatchesInsertionSort(t *testing.T) {
	ref := func(w [5]float64) float64 {
		buf := w // insertion sort exactly as the generic window path
		for a := 1; a < len(buf); a++ {
			v := buf[a]
			b := a - 1
			for b >= 0 && buf[b] > v {
				buf[b+1] = buf[b]
				b--
			}
			buf[b+1] = v
		}
		return buf[2]
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1)}
	n := len(vals)
	var w [5]float64
	for code := 0; code < n*n*n*n*n; code++ {
		c := code
		for i := range w {
			w[i] = vals[c%n]
			c /= n
		}
		want := ref(w)
		got := median5(w[0], w[1], w[2], w[3], w[4])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("median5(%v) = %x (%v), want %x (%v)",
				w, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
}

// Property: Interp1 at knots returns the knot values.
func TestQuickInterpAtKnots(t *testing.T) {
	xs := []float64{0, 1, 2, 5, 9}
	ys := []float64{3, -1, 4, 4, 0}
	for i := range xs {
		if got := Interp1(xs, ys, xs[i]); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("knot %d: %v != %v", i, got, ys[i])
		}
	}
}

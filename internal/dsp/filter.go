package dsp

import "sort"

// MovingAverage smooths xs with a centered window of the given odd width.
// Windows are truncated at the edges. width <= 1 returns a copy.
func MovingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	if width <= 1 {
		copy(out, xs)
		return out
	}
	half := width / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var s float64
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}

// median5 is the middle order statistic of five values as the insertion
// sort below computes it: the comparisons are the same `buf[b] > v`
// tests, unrolled, in the same order — so the result is bit-identical
// even for NaN operands (unordered compares terminate insertion exactly
// as they do in the loop) and ±0.0 ties (stable order preserved).
// Windows of the default width (5) account for nearly all median-filter
// time, and keeping the five values in registers avoids the copy and
// the bounds-checked buffer walk.
func median5(a, b, c, d, e float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c { // insert c into (a, b)
		if a > c {
			a, b, c = c, a, b
		} else {
			b, c = c, b
		}
	}
	if c > d { // insert d into (a, b, c)
		if b > d {
			if a > d {
				a, b, c, d = d, a, b, c
			} else {
				b, c, d = d, b, c
			}
		} else {
			c, d = d, c
		}
	}
	// Insert e: only the middle of the final five is needed.
	if d > e {
		if c > e {
			if b > e {
				return b // e lands at index 0 or 1; middle is b either way
			}
			return e // order a, b, e, c, d
		}
		return c // order a, b, c, e, d
	}
	return c // order a, b, c, d, e
}

// MedianFilterRangeTo applies a centered median filter of the given odd
// width, truncated at the edges, knocking impulsive phase outliers from
// multipath self-interference out before fitting. Typical widths (5) use
// a stack-allocated insertion sort instead of sort.Float64s — the order
// statistics, and therefore the output, are identical for the finite
// inputs profiles carry.
//
// dst[:from] is taken as already filtered and only out[from:] is
// computed; from = 0 filters all of xs. A window of width w centered at i
// reads xs[i−w/2 .. i+w/2], so when xs grew by appends from n0 to n
// samples the first index whose (edge-truncated) window changed is
// n0 − w/2; passing that as from reproduces the from-scratch filter
// bit-for-bit while paying only for the new tail.
//
// The output goes into dst, which is grown geometrically only when its
// capacity is insufficient, preserving the filtered prefix — hot callers
// (V-zone refinement runs once per tag per snapshot) reuse one output
// buffer across calls; nil allocates. The returned slice aliases dst's
// backing array when capacity allows; dst must not alias xs (windows read
// xs after earlier outputs are written, so filtering in place would
// corrupt the result).
func MedianFilterRangeTo(dst, xs []float64, width, from int) []float64 {
	if from < 0 {
		from = 0
	}
	if cap(dst) < len(xs) {
		// Geometric growth: scratch-threaded callers filter a growing
		// series every snapshot; exact-size regrowth would allocate on
		// each call instead of O(log growth).
		c := 2 * cap(dst)
		if c < len(xs) {
			c = len(xs)
		}
		grown := make([]float64, len(xs), c)
		copy(grown, dst[:from])
		dst = grown
	}
	out := dst[:len(xs)]
	if width <= 1 {
		copy(out[from:], xs[from:])
		return out
	}
	half := width / 2
	var small [16]float64
	var big []float64 // only for windows wider than the stack buffer
	for i := from; i < len(xs); i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		m := hi + 1 - lo
		if m == 5 {
			// Full windows at the default width (and width-9 edge
			// windows that truncate to five) stay in registers.
			out[i] = median5(xs[lo], xs[lo+1], xs[lo+2], xs[lo+3], xs[lo+4])
			continue
		}
		var buf []float64
		if m <= len(small) {
			buf = small[:m]
		} else {
			if cap(big) < m {
				big = make([]float64, m)
			}
			buf = big[:m]
		}
		copy(buf, xs[lo:hi+1])
		for a := 1; a < m; a++ {
			v := buf[a]
			b := a - 1
			for b >= 0 && buf[b] > v {
				buf[b+1] = buf[b]
				b--
			}
			buf[b+1] = v
		}
		if m%2 == 1 {
			out[i] = buf[m/2]
		} else {
			out[i] = (buf[m/2-1] + buf[m/2]) / 2
		}
	}
	return out
}

// Interp1 linearly interpolates the function defined by (xs, ys) at x.
// xs must be strictly increasing. Values outside the domain are clamped to
// the boundary values.
func Interp1(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	i := sort.SearchFloat64s(xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	if x1 == x0 {
		return y0
	}
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// Resample evaluates the piecewise-linear function (xs, ys) at n evenly
// spaced points across [xs[0], xs[len-1]], returning the new sample times
// and values. Used to put variable-rate ALOHA reads on a regular grid.
func Resample(xs, ys []float64, n int) (times, values []float64) {
	times = make([]float64, n)
	values = make([]float64, n)
	if len(xs) == 0 || n == 0 {
		return times, values
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if n == 1 {
		times[0] = lo
		values[0] = ys[0]
		return times, values
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		t := lo + float64(i)*step
		times[i] = t
		values[i] = Interp1(xs, ys, t)
	}
	return times, values
}

// Downsample keeps every k-th element of xs (k >= 1), starting from index 0.
func Downsample(xs []float64, k int) []float64 {
	if k <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, 0, (len(xs)+k-1)/k)
	for i := 0; i < len(xs); i += k {
		out = append(out, xs[i])
	}
	return out
}

package dtw

import (
	"math"
	"testing"
	"testing/quick"
)

func seg(lo, hi, interval float64) Segment {
	return Segment{Lo: lo, Hi: hi, Interval: interval}
}

func TestSegDist(t *testing.T) {
	cases := []struct {
		a, b Segment
		want float64
	}{
		{seg(0, 1, 1), seg(2, 3, 1), 1}, // b above a
		{seg(2, 3, 1), seg(0, 1, 1), 1}, // a above b
		{seg(0, 2, 1), seg(1, 3, 1), 0}, // overlap
		{seg(0, 1, 1), seg(1, 2, 1), 0}, // touching
		{seg(0, 1, 1), seg(5, 9, 1), 4}, // far apart
		{seg(3, 3, 1), seg(3, 3, 1), 0}, // degenerate equal
		{seg(1, 1, 1), seg(4, 4, 1), 3}, // degenerate apart
	}
	for i, c := range cases {
		if got := SegDist(c.a, c.b); got != c.want {
			t.Errorf("case %d: SegDist = %v, want %v", i, got, c.want)
		}
	}
}

func TestQuickSegDistSymmetric(t *testing.T) {
	f := func(alo, ahi, blo, bhi int8) bool {
		a := seg(math.Min(float64(alo), float64(ahi)), math.Max(float64(alo), float64(ahi)), 1)
		b := seg(math.Min(float64(blo), float64(bhi)), math.Max(float64(blo), float64(bhi)), 1)
		return SegDist(a, b) == SegDist(b, a) && SegDist(a, b) >= 0 && SegDist(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignSegmentsIdentical(t *testing.T) {
	p := []Segment{seg(0, 1, 0.1), seg(1, 2, 0.1), seg(2, 3, 0.1)}
	r, _, _ := alignOnce(p, p, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("self distance = %v", r.Distance)
	}
	if len(r.Path) != 3 {
		t.Errorf("path len = %d", len(r.Path))
	}
}

func TestAlignSegmentsEmpty(t *testing.T) {
	if r, _, _ := alignOnce(nil, []Segment{seg(0, 1, 1)}, SegmentAlignOpts{}); r.Distance != 0 || r.Path != nil {
		t.Errorf("empty = %+v", r)
	}
}

func TestAlignSegmentsIntervalWeighting(t *testing.T) {
	// Identical ranges but a long-interval mismatch should cost more than a
	// short-interval mismatch.
	p := []Segment{seg(0, 1, 1.0)}
	qNear := []Segment{seg(2, 3, 0.1)}
	qFar := []Segment{seg(2, 3, 1.0)}
	near, _, _ := alignOnce(p, qNear, SegmentAlignOpts{})
	far, _, _ := alignOnce(p, qFar, SegmentAlignOpts{})
	if !(near.Distance < far.Distance) {
		t.Errorf("interval weighting: near=%v far=%v", near.Distance, far.Distance)
	}
	// min(1.0, 0.1)*1 = 0.1 and min(1,1)*1 = 1.
	if !approx(near.Distance, 0.1, 1e-12) || !approx(far.Distance, 1.0, 1e-12) {
		t.Errorf("costs = %v, %v", near.Distance, far.Distance)
	}
}

func TestAlignSegmentsWarped(t *testing.T) {
	// q is p with each segment split in two; distance should stay zero
	// because ranges overlap along the warped path.
	p := []Segment{seg(0, 2, 0.2), seg(2, 4, 0.2), seg(4, 6, 0.2)}
	q := []Segment{
		seg(0, 1, 0.1), seg(1, 2, 0.1),
		seg(2, 3, 0.1), seg(3, 4, 0.1),
		seg(4, 5, 0.1), seg(5, 6, 0.1),
	}
	r, start, end := alignOnce(p, q, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("warped distance = %v, want 0", r.Distance)
	}
	// Open end: the match may start past column 0 (p[0] already touches
	// q[2]), but the path must consume the whole reference and run from
	// the reported start to the reported end.
	if r.Path[0].J != start {
		t.Errorf("path starts at column %d, match start %d", r.Path[0].J, start)
	}
	checkPath(t, r.Path, len(p), end+1)
}

func TestSegmentAlignerLocatesVZone(t *testing.T) {
	// A "V" of ranges embedded among flat high segments.
	flat := seg(5.5, 6, 0.1)
	v := []Segment{seg(3, 4, 0.1), seg(1, 3, 0.1), seg(0, 1, 0.1), seg(1, 3, 0.1), seg(3, 4, 0.1)}
	q := []Segment{flat, flat, flat}
	q = append(q, v...)
	q = append(q, flat, flat, flat)

	r, start, end := alignOnce(v, q, SegmentAlignOpts{})
	if r.Distance != 0 {
		t.Errorf("distance = %v, want 0", r.Distance)
	}
	if start != 3 || end != 7 {
		t.Errorf("match [%d,%d], want [3,7]", start, end)
	}
}

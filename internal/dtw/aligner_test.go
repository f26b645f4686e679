package dtw

import (
	"math/rand"
	"reflect"
	"testing"
)

// randSegs builds a random segment list; intervals and ranges are in the
// magnitudes the profile segmenter produces.
func randSegs(rng *rand.Rand, n int) []Segment {
	out := make([]Segment, n)
	start := 0
	for i := range out {
		lo := rng.Float64() * 6
		w := 1 + rng.Intn(5)
		out[i] = Segment{
			Lo: lo, Hi: lo + rng.Float64()*2,
			Start: start, End: start + w,
			Interval: rng.Float64() * 0.5,
		}
		start += w
	}
	return out
}

// alignOnce is a one-shot open-end alignment: a fresh aligner's first
// Align, whose answer nothing resumed can have influenced.
func alignOnce(p, q []Segment, opts SegmentAlignOpts) (Result, int, int) {
	return NewSegmentAligner(p, opts).Align(q)
}

// TestSegmentAlignerMatchesBatch grows a query segment by segment and
// asserts that the resumable aligner answers every prefix byte-identically
// to a fresh one-shot alignment — distance, path, and matched interval.
func TestSegmentAlignerMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		p := randSegs(rng, 1+rng.Intn(12))
		q := randSegs(rng, 1+rng.Intn(60))
		opts := SegmentAlignOpts{Stiffness: []float64{0, 0.5}[rng.Intn(2)]}
		al := NewSegmentAligner(p, opts)
		n := 0
		for n < len(q) {
			n += 1 + rng.Intn(7)
			if n > len(q) {
				n = len(q)
			}
			wantRes, wantS, wantE := alignOnce(p, q[:n], opts)
			gotRes, gotS, gotE := al.Align(q[:n])
			if wantRes.Distance != gotRes.Distance || wantS != gotS || wantE != gotE {
				t.Fatalf("trial %d n=%d: got (%v,%d,%d), want (%v,%d,%d)",
					trial, n, gotRes.Distance, gotS, gotE, wantRes.Distance, wantS, wantE)
			}
			if !reflect.DeepEqual(wantRes.Path, gotRes.Path) {
				t.Fatalf("trial %d n=%d: paths diverged", trial, n)
			}
		}
	}
}

// TestSegmentAlignerRewrittenTail mutates the tail of a previously aligned
// query — the re-segmentation pattern an out-of-order read causes — and
// checks the aligner recomputes from the first changed column only, still
// matching a one-shot alignment.
func TestSegmentAlignerRewrittenTail(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randSegs(rng, 8)
	q := randSegs(rng, 40)
	opts := SegmentAlignOpts{Stiffness: 0.5}
	al := NewSegmentAligner(p, opts)
	al.Align(q)
	if al.Cols() != 40 {
		t.Fatalf("cols = %d, want 40", al.Cols())
	}

	// Rewrite the last 5 segments, then shrink the query.
	q2 := append(append([]Segment(nil), q[:35]...), randSegs(rng, 5)...)
	wantRes, wantS, wantE := alignOnce(p, q2, opts)
	gotRes, gotS, gotE := al.Align(q2)
	if wantRes.Distance != gotRes.Distance || wantS != gotS || wantE != gotE ||
		!reflect.DeepEqual(wantRes.Path, gotRes.Path) {
		t.Fatal("rewritten tail diverged from batch")
	}

	short := q2[:12]
	wantRes, wantS, wantE = alignOnce(p, short, opts)
	gotRes, gotS, gotE = al.Align(short)
	if al.Cols() != 12 {
		t.Fatalf("cols after shrink = %d, want 12", al.Cols())
	}
	if wantRes.Distance != gotRes.Distance || wantS != gotS || wantE != gotE ||
		!reflect.DeepEqual(wantRes.Path, gotRes.Path) {
		t.Fatal("shrunken query diverged from batch")
	}
}

// TestSegmentAlignerEmpty: an empty reference or query yields the zero
// Result and a [0, 0] match.
func TestSegmentAlignerEmpty(t *testing.T) {
	al := NewSegmentAligner(nil, SegmentAlignOpts{})
	if res, s, e := al.Align([]Segment{{Hi: 1, Interval: 1}}); res.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty reference = %+v %d %d", res, s, e)
	}
	al = NewSegmentAligner([]Segment{{Hi: 1, Interval: 1}}, SegmentAlignOpts{})
	if res, s, e := al.Align(nil); res.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty query = %+v %d %d", res, s, e)
	}
}

// TestSegmentAlignerBothEmpty: with both reference and query empty the
// aligner returns a zero distance and a [0, 0] match.
func TestSegmentAlignerBothEmpty(t *testing.T) {
	res, s, e := NewSegmentAligner(nil, SegmentAlignOpts{}).Align(nil)
	if res.Distance != 0 || s != 0 || e != 0 {
		t.Errorf("empty = %+v %d %d", res, s, e)
	}
}

// TestAlignSegmentsPooled proves the aligner's DP matrices are actually
// recycled: after Release hands the matrix back to the shared free-list, a
// full re-alignment draws it out again instead of allocating (and zeroing)
// a fresh O(m·n) array.
func TestAlignSegmentsPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, q := randSegs(rng, 30), randSegs(rng, 200)
	al := NewSegmentAligner(p, SegmentAlignOpts{Stiffness: 0.5})
	al.Align(q) // warm the free-list and the aligner's scratch

	// 30×200 matrix = 48000 bytes. Every scratch buffer is already sized,
	// so anything above zero means the matrix is not coming back from the
	// free-list.
	allocs := testing.AllocsPerRun(50, func() {
		al.Release()
		al.Align(q)
	})
	if allocs > 0 {
		t.Errorf("release + full re-alignment allocates %.0f objects/op, want 0", allocs)
	}
}

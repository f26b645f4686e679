package dtw

import (
	"math"
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
	return alignPath(NewSegmentAligner(p, opts), q, 0)
}

// alignPath runs Align, told that q changed from index changed on, and
// answers like a path-returning aligner: the distance, the warping path
// tracePath rebuilds from the held decisions, and the match's first and
// last query columns. The aligners these tests build with
// NewSegmentAligner span every reference row, row 0 included, so
// SpanStart is the path's first column. An empty reference or query
// yields the zero Result and a [0, 0] match.
func alignPath(al *SegmentAligner, q []Segment, changed int) (Result, int, int) {
	var sc Scratch
	mt := al.Align(q, changed, &sc)
	if len(al.ref.p) == 0 || len(q) == 0 {
		return Result{Distance: mt.Distance}, mt.SpanStart, mt.End
	}
	return Result{Distance: mt.Distance, Path: al.tracePath(mt.End)}, mt.SpanStart, mt.End
}

// tracePath is the test-only full traceback: it decodes the held packed
// decisions on its own, independently of the production walk, and
// returns the warping path from row 0 to the free end (m−1, endJ) in
// forward order.
func (a *SegmentAligner) tracePath(endJ int) Path {
	m := len(a.ref.p)
	stride := (m + 3) / 4
	i, j := m-1, endJ
	var rev Path
	for {
		rev = append(rev, Step{I: i, J: j})
		if i == 0 {
			break
		}
		if j == 0 {
			i--
			continue
		}
		cell := a.dir[j*stride+i/4] >> (2 * (i % 4)) & 3
		switch cell {
		case stepDiag:
			i, j = i-1, j-1
		case stepVert:
			i--
		case stepHoriz:
			j--
		default:
			panic("dtw: undefined packed decision")
		}
	}
	reverse(rev)
	return rev
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
			prev := n
			n += 1 + rng.Intn(7)
			if n > len(q) {
				n = len(q)
			}
			wantRes, wantS, wantE := alignOnce(p, q[:n], opts)
			gotRes, gotS, gotE := alignPath(al, q[:n], prev)
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
	alignPath(al, q, 0)
	if len(al.lastRow) != 40 {
		t.Fatalf("cols = %d, want 40", len(al.lastRow))
	}

	// Rewrite the last 5 segments, then shrink the query.
	q2 := append(append([]Segment(nil), q[:35]...), randSegs(rng, 5)...)
	wantRes, wantS, wantE := alignOnce(p, q2, opts)
	gotRes, gotS, gotE := alignPath(al, q2, firstChanged(q, q2))
	if wantRes.Distance != gotRes.Distance || wantS != gotS || wantE != gotE ||
		!reflect.DeepEqual(wantRes.Path, gotRes.Path) {
		t.Fatal("rewritten tail diverged from batch")
	}

	short := q2[:12]
	wantRes, wantS, wantE = alignOnce(p, short, opts)
	gotRes, gotS, gotE = alignPath(al, short, firstChanged(q2, short))
	if len(al.lastRow) != 12 {
		t.Fatalf("cols after shrink = %d, want 12", len(al.lastRow))
	}
	if wantRes.Distance != gotRes.Distance || wantS != gotS || wantE != gotE ||
		!reflect.DeepEqual(wantRes.Path, gotRes.Path) {
		t.Fatal("shrunken query diverged from batch")
	}
}

// TestSegmentAlignerSignedZero: a query segment that changes only in the
// sign of a zero is a changed segment. Its column is recomputed, so the
// held aligner answers with the distance bits of a fresh one, and a NaN
// segment realigned as-is answers like a fresh aligner too.
func TestSegmentAlignerSignedZero(t *testing.T) {
	p := []Segment{{Lo: 0, Hi: 1, End: 1, Interval: 1}}
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct{ before, after Segment }{
		{Segment{Lo: 0, Hi: 1, End: 1, Interval: 0}, Segment{Lo: 0, Hi: 1, End: 1, Interval: negZero}},
		{Segment{Lo: 0, Hi: 1, End: 1, Interval: negZero}, Segment{Lo: 0, Hi: 1, End: 1, Interval: 0}},
		{Segment{Lo: math.NaN(), Hi: 1, End: 1, Interval: 1}, Segment{Lo: math.NaN(), Hi: 1, End: 1, Interval: 1}},
	} {
		al := NewSegmentAligner(p, SegmentAlignOpts{})
		before, after := []Segment{tc.before}, []Segment{tc.after}
		alignPath(al, before, 0)
		got, gs, ge := alignPath(al, after, firstChanged(before, after))
		want, ws, we := alignOnce(p, []Segment{tc.after}, SegmentAlignOpts{})
		if math.Float64bits(got.Distance) != math.Float64bits(want.Distance) || gs != ws || ge != we {
			t.Errorf("%+v → %+v: got (%v,%d,%d), fresh aligner (%v,%d,%d)",
				tc.before, tc.after, got.Distance, gs, ge, want.Distance, ws, we)
		}
	}
}

// TestSegmentAlignerEmpty: an empty reference or query yields the zero
// Result and a [0, 0] match.
func TestSegmentAlignerEmpty(t *testing.T) {
	al := NewSegmentAligner(nil, SegmentAlignOpts{})
	if res, s, e := alignPath(al, []Segment{{Hi: 1, Interval: 1}}, 0); res.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty reference = %+v %d %d", res, s, e)
	}
	al = NewSegmentAligner([]Segment{{Hi: 1, Interval: 1}}, SegmentAlignOpts{})
	if res, s, e := alignPath(al, nil, 0); res.Path != nil || s != 0 || e != 0 {
		t.Errorf("empty query = %+v %d %d", res, s, e)
	}
}

// TestSegmentAlignerBothEmpty: with both reference and query empty the
// aligner returns a zero distance and a [0, 0] match.
func TestSegmentAlignerBothEmpty(t *testing.T) {
	res, s, e := alignPath(NewSegmentAligner(nil, SegmentAlignOpts{}), nil, 0)
	if res.Distance != 0 || s != 0 || e != 0 {
		t.Errorf("empty = %+v %d %d", res, s, e)
	}
}

// TestAlignSegmentsPooled proves the aligner's decision arrays are
// actually recycled: after Release hands the array back to the shared
// free-list, a full re-alignment draws it out again instead of allocating
// (and zeroing) a fresh O(m·n) array.
func TestAlignSegmentsPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, q := randSegs(rng, 30), randSegs(rng, 200)
	al := NewSegmentAligner(p, SegmentAlignOpts{Stiffness: 0.5})
	var sc Scratch
	al.Align(q, 0, &sc) // warm the free-list, the aligner and the scratch

	// 30×200 decisions pack into 1600 bytes. Every other buffer is
	// already sized, so anything above zero means the array is not coming
	// back from the free-list.
	allocs := testing.AllocsPerRun(50, func() {
		al.Release()
		al.Align(q, 0, &sc)
	})
	if allocs > 0 {
		t.Errorf("release + full re-alignment allocates %.0f objects/op, want 0", allocs)
	}
}

// TestSegmentAlignerMemory pins what an aligner holds after aligning n
// query columns against m reference segments: at most 2·⌈m/4⌉·n packed
// decision bytes (2 bits per cell, plus doubling headroom) and at most
// 2m+2n float64s across the value ring and the last-row mirror — no m×n
// float matrix and none of the fill's cost or byte-decision scratch,
// which live in the caller's Scratch. By reflection it also pins that no
// field holds path steps or query segments: the caller's segment cache
// holds the query. The free-list is emptied first: a recycled array may
// come from a larger class by design.
func TestSegmentAlignerMemory(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(SegmentAligner{})) {
		if ft := f.Type; ft == reflect.TypeOf(Path(nil)) || ft == reflect.TypeOf([]Step(nil)) || ft == reflect.TypeOf(Step{}) {
			t.Errorf("SegmentAligner.%s holds path steps (%v)", f.Name, ft)
		}
		if ft := f.Type; ft == reflect.TypeOf([]Segment(nil)) {
			t.Errorf("SegmentAligner.%s holds query segments (%v)", f.Name, ft)
		}
	}
	dirMu.Lock()
	dirFree, dirFreeBytes = [48][][]uint8{}, 0
	dirMu.Unlock()
	rng := rand.New(rand.NewSource(4))
	p, q := randSegs(rng, 465), randSegs(rng, 700)
	m := len(p)
	stride := (m + 3) / 4
	al := NewSegmentAligner(p, SegmentAlignOpts{Stiffness: 0.5})
	var sc Scratch
	prev := 0
	for n := 1; n <= len(q); n += 1 + rng.Intn(40) {
		al.Align(q[:n], prev, &sc)
		prev = n
		if got := cap(al.dir); got > 2*stride*n {
			t.Fatalf("n=%d: %d decision bytes held, want <= 2·⌈m/4⌉·n = %d", n, got, 2*stride*n)
		}
		if got := cap(al.ring) + cap(al.lastRow); got > 2*m+2*n {
			t.Fatalf("n=%d: %d float64s held, want <= 2m+2n = %d", n, got, 2*m+2*n)
		}
	}
}

// TestPackStepsMatchesCells pins both pack passes against a per-cell
// pack, at every length up to a few blocks: each output byte holds its
// four cells in order, and the pass writes exactly len(dst) bytes.
func TestPackStepsMatchesCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	passes := map[string]func(dst, src []uint8){"scalar": packSteps}
	if useFillAsm {
		passes["avx2"] = func(dst, src []uint8) { packStepsAVX2(&dst[0], &src[0], len(dst)) }
	}
	for name, pack := range passes {
		for m := 1; m <= 100; m++ {
			src := make([]uint8, (m+31)&^31)
			for i := 0; i < m; i++ {
				src[i] = uint8(rng.Intn(3))
			}
			s := (m + 3) / 4
			dst := make([]uint8, s+8)
			for i := range dst {
				dst[i] = 0xa5
			}
			pack(dst[:s], src)
			for i := 0; i < m; i++ {
				if got := dst[i/4] >> (2 * (i % 4)) & 3; got != src[i] {
					t.Fatalf("%s m=%d: cell %d packed as %d, want %d", name, m, i, got, src[i])
				}
			}
			for i := s; i < len(dst); i++ {
				if dst[i] != 0xa5 {
					t.Fatalf("%s m=%d: byte %d past the %d-byte column written", name, m, i, s)
				}
			}
		}
	}
}

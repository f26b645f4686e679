package dtw

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refAligner is the float-matrix open-end segment aligner the decision
// bytes replaced, kept as the reference the exactness tests compare
// against. It holds the full m×n cost matrix, recomputing it from the
// first changed column on, and decides each traceback step from the cell
// values.
type refAligner struct {
	p     []Segment
	opts  SegmentAlignOpts
	q     []Segment
	cells []float64 // column-major: cell (i, j) at j*m+i
}

func (r *refAligner) at(i, j int) float64 { return r.cells[j*len(r.p)+i] }

// sameSegment is the bit-for-bit segment equality profile.SegmentCache
// reports its changed index by, restated for the tests that replay
// queries here: == would keep a column across a change in the sign of a
// zero and would never keep one whose segment holds a NaN.
func sameSegment(a, b Segment) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		math.Float64bits(a.Interval) == math.Float64bits(b.Interval) &&
		a.Start == b.Start && a.End == b.End
}

// firstChanged is the changed index Align is owed for q after prev: the
// first index at which they differ bit for bit.
func firstChanged(prev, q []Segment) int {
	cp := 0
	for cp < len(prev) && cp < len(q) && sameSegment(prev[cp], q[cp]) {
		cp++
	}
	return cp
}

func (r *refAligner) align(q []Segment) (Result, int) {
	m, n := len(r.p), len(q)
	if m == 0 || n == 0 {
		return Result{}, 0
	}
	cp := firstChanged(r.q, q)
	// Columns of the unchanged prefix are kept; a segment that differs in
	// any bit, the sign of a zero included, is recomputed.
	r.q = append(r.q[:cp:cp], q[cp:]...)
	q = r.q
	r.cells = append(make([]float64, 0, m*n), r.cells[:cp*m]...)[:m*n]
	st := r.opts.Stiffness
	for j := cp; j < n; j++ {
		col := r.cells[j*m : j*m+m]
		for i := range col {
			d := 0.0
			if v := r.p[i].Lo - q[j].Hi; v > d {
				d = v
			}
			if v := q[j].Lo - r.p[i].Hi; v > d {
				d = v
			}
			t := r.p[i].Interval
			if q[j].Interval < t {
				t = q[j].Interval
			}
			col[i] = t * d
		}
		acc := col[0]
		for i := 1; i < m; i++ {
			if j == 0 {
				acc = col[i] + acc + st*r.p[i].Interval
			} else {
				best := acc + st*r.p[i].Interval
				if left := r.at(i, j-1) + st*q[j].Interval; left < best {
					best = left
				}
				if diag := r.at(i-1, j-1); diag < best {
					best = diag
				}
				acc = col[i] + best
			}
			col[i] = acc
		}
	}
	endJ := 0
	best := r.at(m-1, 0)
	for j := 1; j < n; j++ {
		if c := r.at(m-1, j); c <= best {
			best, endJ = c, j
		}
	}
	return Result{Distance: best, Path: r.traceback(m-1, endJ)}, endJ
}

func (r *refAligner) traceback(i, j int) Path {
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
		vert := r.at(i-1, j) + r.opts.Stiffness*r.p[i].Interval
		horiz := r.at(i, j-1) + r.opts.Stiffness*r.q[j].Interval
		diag := r.at(i-1, j-1)
		if diag <= vert && diag <= horiz {
			i--
			j--
		} else if vert <= horiz {
			i--
		} else {
			j--
		}
	}
	reverse(rev)
	return rev
}

// script reads an alignment scenario from bytes, so the property test
// and the fuzz target drive the same interpreter: a reference length and
// stiffness, the reference segments, then operations until the bytes run
// out. Segment values come from small grids so ties are common, and
// intervals include ±0, infinities, NaN and negatives.
type script struct {
	data []byte
	pos  int
}

func (s *script) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

func (s *script) done() bool { return s.pos >= len(s.data) }

var scriptIntervals = [...]float64{
	0, math.Copysign(0, -1), 0.25, 0.5, 1, 1, 0.5, 0.25,
	math.Inf(1), math.NaN(), math.Inf(-1), -0.5,
}

func (s *script) segment(start int) Segment {
	x, y := s.next(), s.next()
	lo := float64(x%5) * 0.5
	return Segment{
		Lo: lo, Hi: lo + float64(x/5%3)*0.5,
		Start: start, End: start + 1 + x/15%2,
		Interval: scriptIntervals[y%len(scriptIntervals)],
	}
}

func (s *script) segments(n int) []Segment {
	out := make([]Segment, n)
	for i := range out {
		out[i] = s.segment(i)
	}
	return out
}

// sameBits reports bit-identical floats, counting any two NaNs as equal:
// Go leaves NaN payloads unspecified, and the compiler may commute an
// addition's operands, which picks the payload of a NaN + NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// spanCols reads the span columns off a full warping path: the column of
// the first step at a row ≥ lo and of the last step at a row < hi.
func spanCols(path Path, lo, hi int) (int, int) {
	p1 := sort.Search(len(path), func(k int) bool { return path[k].I >= lo })
	p2 := sort.Search(len(path), func(k int) bool { return path[k].I >= hi })
	return path[p1].J, path[p2-1].J
}

// coverage counts how often a script reached the aligner's rare branch:
// held columns whose fill re-derived its decisions because of a NaN or
// non-finite operand.
type coverage struct {
	rederived int
}

// runScript replays a scenario through a SegmentAligner and refAligner
// side by side, failing on the first difference in distance bits, match
// end, span columns, path steps or held column count. The aligner is told
// the first segment that differs bit for bit from the reference's
// previous query, and fills in sc. The aligner's path
// is the test-only tracePath over its held decisions; its span columns
// come from the path-free production walk and must equal
// those spanCols reads off the reference's path.
func runScript(t *testing.T, data []byte, sc *Scratch) coverage {
	t.Helper()
	s := &script{data: data}
	m := 1 + s.next()%12
	opts := SegmentAlignOpts{Stiffness: [...]float64{0, 0.5, 1, 0.25}[s.next()%4]}
	spanLo := s.next() % m
	spanHi := spanLo + 1 + s.next()%(m-spanLo)
	p := s.segments(m)
	ref := NewReference(p, opts, spanLo, spanHi)
	al := NewSharedAligner(ref)
	want := &refAligner{p: p, opts: opts}
	var q []Segment
	var cov coverage
	check := func(op string) {
		t.Helper()
		if len(al.lastRow) != len(want.q) {
			t.Fatalf("%s (m=%d n=%d): %d columns held, reference %d", op, m, len(q), len(al.lastRow), len(want.q))
		}
	}
	align := func(op string) {
		t.Helper()
		cp := firstChanged(want.q, q)
		wr, we := want.align(q)
		got := al.Align(q, cp, sc)
		if len(q) == 0 {
			if got != (Match{}) || wr.Path != nil {
				t.Fatalf("%s (m=%d): empty query answered %+v", op, m, got)
			}
			check(op)
			return
		}
		if !sameBits(wr.Distance, got.Distance) || we != got.End {
			t.Fatalf("%s (m=%d n=%d): got (%v,%d), reference (%v,%d)",
				op, m, len(q), got.Distance, got.End, wr.Distance, we)
		}
		if vs, ve := spanCols(wr.Path, spanLo, spanHi); got.SpanStart != vs || got.SpanEnd != ve {
			t.Fatalf("%s (m=%d n=%d span [%d,%d)): span columns %d..%d, reference path %d..%d",
				op, m, len(q), spanLo, spanHi, got.SpanStart, got.SpanEnd, vs, ve)
		}
		path := al.tracePath(got.End)
		if len(wr.Path) != len(path) {
			t.Fatalf("%s (m=%d n=%d): path length %d, reference %d", op, m, len(q), len(path), len(wr.Path))
		}
		for k := range wr.Path {
			if wr.Path[k] != path[k] {
				t.Fatalf("%s (m=%d n=%d): path step %d = %v, reference %v", op, m, len(q), k, path[k], wr.Path[k])
			}
		}
		check(op)
	}
	for !s.done() {
		switch op := s.next() % 7; op {
		case 0, 1, 2: // append
			q = append(q[:len(q):len(q)], s.segments(1+s.next()%6)...)
			align("append")
		case 3: // rewrite from a column on
			k := 0
			if len(q) > 0 {
				k = s.next() % len(q)
			}
			q = append(q[:k:k], s.segments(1+s.next()%4)...)
			align("rewrite")
		case 4: // shrink
			if len(q) > 0 {
				q = q[:1+s.next()%len(q)]
			}
			align("shrink")
		case 5: // realign the same query
			align("same")
		case 6:
			al.Release()
			want.q = nil
			check("release")
		}
	}
	// Columns whose fill re-derived its decisions: a NaN last-row value in
	// the column or its predecessor, or a non-finite horizontal penalty.
	for j := 1; j < len(want.q) && j < len(al.lastRow); j++ {
		horiz := opts.Stiffness * want.q[j].Interval
		if al.lastRow[j] != al.lastRow[j] || al.lastRow[j-1] != al.lastRow[j-1] || horiz-horiz != 0 {
			cov.rederived++
		}
	}
	return cov
}

// TestSegmentAlignerMatchesReference is the packed-decision aligner's
// exactness property: over random scenarios of appends, tail rewrites,
// shrinks and releases on tie-heavy, zero, infinite and NaN operands,
// every alignment equals the float-matrix reference's in distance bits,
// match end, span columns and path, and both hold the same columns after
// every step. The scenarios must reach the NaN re-derivation. One
// Scratch serves every trial, as one serves many tags' aligners, over
// references of every size.
func TestSegmentAlignerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var cov coverage
	var sc Scratch
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 40+rng.Intn(200))
		rng.Read(data)
		c := runScript(t, data, &sc)
		cov.rederived += c.rederived
	}
	if cov.rederived == 0 {
		t.Errorf("scenarios never re-derived a column: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

// FuzzSegmentAligner is TestSegmentAlignerMatchesReference under
// coverage guidance.
func FuzzSegmentAligner(f *testing.F) {
	f.Add([]byte{7, 1, 3, 4, 9, 2, 14, 0, 1, 1, 22, 3, 5, 8, 0, 5, 1, 2, 3, 4, 5, 6, 7, 3, 2, 1, 0, 6, 0, 0, 3})
	f.Add([]byte{11, 0, 1, 9, 2, 9, 3, 9, 4, 8, 5, 9, 0, 7, 0, 2, 9, 9, 9, 8, 6, 1, 4, 2, 0, 0, 1, 5})
	f.Add([]byte{3, 2, 0, 8, 1, 9, 2, 10, 0, 5, 0, 8, 1, 9, 2, 10, 3, 11, 6, 1, 1, 0, 4, 1, 7, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runScript(t, data, new(Scratch))
	})
}

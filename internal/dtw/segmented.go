package dtw

import (
	"fmt"
	"math/bits"
	"sync"
)

// Segment is the coarse representation of one chunk of a phase profile, as
// defined in Section 3.1.2 of the paper: the [min, max] phase range within
// the chunk and the chunk's time interval. Segments never span a 0<->2π
// phase jump (the segmenter splits at jumps).
type Segment struct {
	// Lo and Hi are the minimum and maximum phase values in the segment
	// (s^L and s^U in the paper).
	Lo, Hi float64
	// Start and End are the sample indices [Start, End) covered by the
	// segment in the original profile.
	Start, End int
	// Interval is the time span of the segment in seconds (s^T).
	Interval float64
}

// SegDist is the paper's distance between two segment ranges: the gap
// between the closest points of the two [Lo,Hi] intervals, zero when they
// overlap.
func SegDist(a, b Segment) float64 {
	switch {
	case a.Lo > b.Hi:
		return a.Lo - b.Hi
	case b.Lo > a.Hi:
		return b.Lo - a.Hi
	default:
		return 0
	}
}

// SegmentAlignOpts tunes segment-level DTW.
type SegmentAlignOpts struct {
	// Stiffness penalizes non-diagonal warping steps, in radians: a
	// vertical step (compressing the reference) adds Stiffness × the
	// repeated reference segment's interval; a horizontal step adds
	// Stiffness × the repeated query segment's interval. Zero disables the
	// penalty (the paper's plain recurrence).
	//
	// The penalty matters because the paper's segment-range distance is
	// zero whenever two ranges overlap; on long measured profiles whose
	// steep flanks produce wide-range segments, an unpenalized subsequence
	// match can collapse the whole reference onto a single segment.
	Stiffness float64
}

// Traceback decisions: the predecessor the optimal path takes out of a DP
// cell. Three values fit in two bits, so the aligner holds four cells per
// byte. The recurrence needs only the previous column's values, so the
// aligner rolls those through a two-column ring and keeps, for every held
// column, just these 2-bit decisions (the traceback) and the column's
// last-row value (the free-end scan).
const (
	stepDiag  uint8 = iota // to (i−1, j−1)
	stepVert               // to (i−1, j): the reference advances alone
	stepHoriz              // to (i, j−1): the query advances alone
)

// dirFree recycles packed decision arrays by power-of-two capacity
// class. Every resumable aligner (one per tracked tag) grows its array
// through doublings as its query extends, and a fresh make() pays the runtime's
// zeroing of the entire new capacity. Every byte is written before it is
// read, so recycled arrays skip that cost entirely.
//
// This is an explicit byte-capped free-list rather than a sync.Pool:
// session churn allocates enough to trigger collections between one
// session's teardown and the next one's ramp-up, and sync.Pool's GC
// victim policy dropped the buffers exactly then — profiles showed the
// whole doubling ladder re-allocated (and re-zeroed) for every fresh
// session. A wide population runs one aligner per tag, all climbing the
// same size ladder together, so the list is capped by total retained
// bytes (dirFreeMaxBytes) rather than per-class counts — a per-class cap
// of a few arrays served a few tags and dropped the rest. Byte arrays are
// pointer-free, so retaining them adds no GC scan work, and the lock is
// uncontended in practice — arrays move only on capacity growth, which
// doubling makes logarithmic.
var (
	dirMu        sync.Mutex
	dirFree      [48][][]uint8
	dirFreeBytes int
)

// dirFreeMaxBytes bounds the retained decision-array bytes. At 2 bits per
// cell a 3-portal, 48-bag airport session holds about 0.8 MiB of packed
// decisions at its peak, so the cap keeps about five such sessions' worth.
const dirFreeMaxBytes = 4 << 20

// getDir returns a zero-length slice with capacity ≥ need, recycled when
// possible. Capacities are exact powers of two so arrays re-enter their
// class on release. A request may be served from a few classes above its
// own: after one session warms the list, a fresh tag starts on a
// session-final-sized array and skips its whole regrowth ladder.
func getDir(need int) []uint8 {
	if need < 1 {
		need = 1
	}
	k := bits.Len(uint(need - 1))
	dirMu.Lock()
	for j := k; j < k+6 && j < len(dirFree); j++ {
		if cl := dirFree[j]; len(cl) > 0 {
			c := cl[len(cl)-1]
			cl[len(cl)-1] = nil
			dirFree[j] = cl[:len(cl)-1]
			dirFreeBytes -= 1 << j
			dirMu.Unlock()
			return c
		}
	}
	dirMu.Unlock()
	return make([]uint8, 0, 1<<k)
}

// putDir recycles a backing array obtained from getDir.
func putDir(c []uint8) {
	n := cap(c)
	if n == 0 || n&(n-1) != 0 {
		return // not one of ours; let the GC have it
	}
	k := bits.Len(uint(n - 1))
	dirMu.Lock()
	if dirFreeBytes+n <= dirFreeMaxBytes {
		dirFree[k] = append(dirFree[k], c[:0])
		dirFreeBytes += n
	}
	dirMu.Unlock()
}

// Reference is the operand set of one segment-DTW reference, shared by
// every aligner built over it: the segments, the options, and the flat
// per-row panels the column fill reads (range bounds, intervals, and the
// precomputed vertical-step penalty Stiffness×interval), and the span rows
// whose matched query columns every alignment reports. A detector over a
// wide tag population builds ONE Reference and hands every tag's aligner a
// pointer to it, so the panels exist once however many tags are resident
// and never need re-deriving per aligner. A Reference is immutable after construction and
// safe for concurrent readers.
type Reference struct {
	p                     []Segment
	opts                  SegmentAlignOpts
	pLo, pHi, pInt, pVert []float64
	// spanLo and spanHi are the span rows [spanLo, spanHi): see
	// Match.SpanStart and Match.SpanEnd.
	spanLo, spanHi int
}

// NewReference derives the shared panels for a reference once. Every
// alignment over it reports the query columns matched to the reference
// rows [spanLo, spanHi), which must satisfy 0 ≤ spanLo < spanHi ≤ len(p)
// unless p is empty.
func NewReference(p []Segment, opts SegmentAlignOpts, spanLo, spanHi int) *Reference {
	m := len(p)
	if m > 0 && (spanLo < 0 || spanHi <= spanLo || spanHi > m) {
		panic(fmt.Sprintf("dtw: span rows [%d, %d) of a %d-row reference", spanLo, spanHi, m))
	}
	r := &Reference{
		p: p, opts: opts,
		pLo: make([]float64, m), pHi: make([]float64, m),
		pInt: make([]float64, m), pVert: make([]float64, m),
		spanLo: spanLo, spanHi: spanHi,
	}
	for i := range p {
		r.pLo[i] = p[i].Lo
		r.pHi[i] = p[i].Hi
		r.pInt[i] = p[i].Interval
		r.pVert[i] = opts.Stiffness * p[i].Interval
	}
	return r
}

// Match is the answer of an open-end segment alignment, read off the
// optimal warping path without building it: the path's accumulated cost
// and the query columns it passes through at the rows callers read. A
// warping path visits every reference row, so every column is defined.
type Match struct {
	// Distance is the accumulated cost of the optimal path.
	Distance float64
	// End is the path's last query column: the free end the whole
	// reference matched up to.
	End int
	// SpanStart is the column of the path's first step at a row ≥ the
	// reference's span start; SpanEnd is the column of its last step at a
	// row < the span end. Together they bound the query run matched to the
	// span rows (see NewReference).
	SpanStart, SpanEnd int
}

// SegmentAligner runs the paper's coarse DTW as an open-end subsequence
// alignment — the whole reference must be consumed but it may match any
// contiguous run of query segments — in resumable form: the reference is
// fixed at construction and the aligner holds the DP state of the
// recurrence column-by-column over query segments. The cost of matching
// segments i and j is
//
//	min(sT_i, sT_j) * SegDist(i, j)
//
// plus the stiffness penalty on non-diagonal steps. Re-aligning
// after k segments were appended to the query extends the DP in O(m·k)
// instead of recomputing the full O(m·n) matrix — the property that makes
// periodic snapshots over an append-only profile pay for new reads only.
//
// The aligner keeps no copy of the query: the caller names the first
// segment that may differ from the previous Align's query (see Align),
// and the held columns before it are kept. A query whose tail was
// rewritten (a re-segmentation after an out-of-order read) transparently
// degrades to recomputing: from the first changed segment when it is one
// of the last two columns, from column 0 otherwise. What the aligner
// holds is what the next call resumes from: one 2-bit traceback decision
// per cell (⌈m/4⌉ bytes per column), the last two columns' values, every
// column's last-row value — no warping path, and none of the fill's
// working memory, which comes from the caller's Scratch for one call. A
// one-shot alignment is a fresh aligner's first Align. A SegmentAligner
// is not safe for concurrent use.
type SegmentAligner struct {
	// ref holds the reference segments, options and the flat per-row fill
	// operands. Aligners built by NewSharedAligner point at one Reference
	// shared across the whole tag population — the aligner itself is a
	// facade over the shared panels plus this tag's private DP state;
	// NewSegmentAligner owns a private one.
	ref *Reference
	// dir holds the traceback decision of every cell of every held column,
	// packed four cells to a byte, column-major at a stride of ⌈m/4⌉
	// bytes: cell (i, j) in bits 2(i%4) and up of byte j·⌈m/4⌉ + i/4.
	dir []uint8
	// ring holds the DP values of the last two filled columns: column j in
	// slot j&1. ringEnd is one past the last filled column, so the ring
	// holds columns ringEnd−1 and ringEnd−2; 0 means it holds nothing (a
	// fresh or released aligner).
	ring    []float64
	ringEnd int
	// lastRow holds every held column's last-row value contiguously: the
	// free-end scan reads all of them on every Align. Its length is the
	// number of held columns.
	lastRow []float64
}

// Scratch is the working memory of one Align: the fill's pointwise cost
// column (m floats) and its one-byte-per-cell decision scratch — two
// slots of m rounded up to a multiple of 32 bytes, column j in slot j&1,
// which packColumn packs into the aligner's held decisions. Nothing in it
// outlives the call, so a caller that runs many aligners holds one
// Scratch per concurrent Align, not one per aligner. The zero Scratch is
// ready for use and serves references of any size. A Scratch is not safe
// for concurrent use.
type Scratch struct {
	cost  []float64
	steps []uint8
	// m is the row count steps is laid out for. The bytes past m in each
	// slot stay zero, so the pack reads whole blocks and writes the same
	// bits on every fill; a different m clears its slots.
	m int
}

// fit sizes the scratch for an m-row reference. Neither buffer shrinks,
// so a scratch that serves references of several sizes stops allocating
// once it has seen the largest.
func (s *Scratch) fit(m int) {
	if cap(s.cost) < m {
		s.cost = make([]float64, m)
	}
	if s.m == m {
		return
	}
	if n := 2 * stepSlot(m); cap(s.steps) < n {
		s.steps = make([]uint8, n)
	} else {
		s.steps = s.steps[:n]
		clear(s.steps)
	}
	s.m = m
}

// NewSegmentAligner builds an aligner over its own private Reference whose
// span is the whole reference. Prefer NewSharedAligner when many aligners
// run the same reference.
func NewSegmentAligner(p []Segment, opts SegmentAlignOpts) *SegmentAligner {
	return NewSharedAligner(NewReference(p, opts, 0, len(p)))
}

// NewSharedAligner builds an aligner over an existing (shared) Reference:
// the aligner carries only its own DP state, so a thousand tags over one
// reference hold one copy of the panels.
func NewSharedAligner(ref *Reference) *SegmentAligner {
	return &SegmentAligner{ref: ref}
}

// Release returns the aligner's packed decision array to the shared
// free-list and clears its held columns. The array is an aligner's
// largest holding — the final-size array a tag grew into over a whole
// session — and without an explicit release it dies with the session
// while the free-list only ever sees the outgrown smaller rungs. The
// aligner remains usable; the next Align simply recomputes from scratch.
func (a *SegmentAligner) Release() {
	putDir(a.dir)
	a.dir = nil
	a.ringEnd = 0
	a.lastRow = a.lastRow[:0]
}

// Align answers the open-end subsequence query over q: the whole reference
// must be consumed, q may match any contiguous run, ties prefer the latest
// end. changed is the caller's promise about q: the segments before index
// changed equal, bit for bit, the previous Align's query at the same
// indices (profile.SegmentCache.Segments reports it). The held columns
// before it are reused; only new or changed query segments are computed,
// and the answer is byte-identical to a fresh aligner's over the same q.
// The fill works in sc, which the call leaves holding nothing the aligner
// needs. An empty reference or query yields the zero Match.
func (a *SegmentAligner) Align(q []Segment, changed int, sc *Scratch) Match {
	m := len(a.ref.p)
	n := len(q)
	if m == 0 || n == 0 {
		return Match{}
	}
	sc.fit(m)
	if cap(a.ring) < 2*m {
		a.ring = make([]float64, 2*m)
	}
	// Keep the held columns before the first changed segment.
	cp := max(0, min(changed, len(a.lastRow), n))
	// The held decisions and last-row values cover every held column.
	// Column cp extends from column cp−1's values, which the ring holds
	// only when cp is one of the last two columns filled — append-only
	// growth, or a rewrite of the last column. Any other extension
	// recomputes from column 0: the values are a deterministic function of
	// (reference, q), so the rewritten prefix is byte-identical.
	lo := cp
	if cp < n && cp < a.ringEnd-1 {
		lo = 0
	}
	// Reserve all columns this call needs up front (with doubling headroom
	// so a stream of small extensions regrows O(log n) times, not once per
	// snapshot). Growth moves to a recycled pooled array — a fresh make()
	// would zero the whole new capacity.
	stride := (m + 3) / 4
	if need := stride * n; cap(a.dir) < need {
		if c := 2 * cap(a.dir); need < c {
			need = c
		}
		grown := append(getDir(need), a.dir[:lo*stride]...)
		putDir(a.dir)
		a.dir = grown
	}
	a.dir = a.dir[:stride*n]
	if cap(a.lastRow) < n {
		nl := make([]float64, n, 2*n)
		copy(nl, a.lastRow[:lo])
		a.lastRow = nl
	} else {
		a.lastRow = a.lastRow[:n]
	}
	for j := lo; j < n; j++ {
		a.fillColumn(sc, q, j, j > lo)
	}
	if lo < n {
		a.packColumn(sc, n-1)
		a.ringEnd = n
	}

	// Free end: pick the cheapest cell in the last reference row. Ties
	// prefer the latest end so zero-cost plateaus match the whole pattern
	// region rather than a truncated prefix.
	endJ := 0
	last := a.lastRow[:n]
	best := last[0]
	for j := 1; j < n; j++ {
		if c := last[j]; c <= best {
			best, endJ = c, j
		}
	}
	mt := a.traceback(endJ)
	mt.Distance = best
	return mt
}

// fillColumn computes DP column j of query q into its ring slot from
// column j−1's (held in the other slot; none for column 0), records each
// cell's traceback decision in sc, and records the column's last-row
// value. With packPrev it then packs column j−1's decisions (see
// packColumn).
//
// Pass 1 (fillCost) is the pointwise matching cost. Pass 2 is the
// sequential min-of-three DP, which carries the col[i−1] dependency and
// stays scalar; splitting the cost out of it roughly halves the work on
// that critical path.
//
// The decision is recorded in the branch arms the minimum already takes:
// vertical, horizontal when left < best, diagonal when diag <= best —
// while best = diag runs only when diag < best, so every value keeps the
// bits of the plain min chain. For operands that are not NaN this is
// exactly the traceback predicate over the finished values (diagonal when
// diag <= vert && diag <= horiz, else vertical when vert <= horiz, else
// horizontal). It can differ only when vert or left is NaN:
//   - vert = col[i−1] + pVert[i]. A NaN vert leaves best NaN (no compare
//     against NaN succeeds), so col[i] is NaN and so is every cell above
//     it: the column's last cell is NaN.
//   - left = prev[i] + horiz. With horiz finite it is NaN only when
//     prev[i] is, and then the predecessor's last cell is NaN by the same
//     argument; otherwise horiz is infinite or NaN.
//
// Columns showing any of those three signs — possible from the wire,
// since long unvalidated read times can make intervals infinite and 0·Inf
// is NaN — re-derive their decisions with the traceback predicate.
//
// The decisions go to the column's one-byte slot of sc.steps, which stays in
// L1, and packColumn packs them into dir in one pass after the fact:
// packing inside the loop adds shift-and-or work to every cell and
// measured slower than the separate pass.
func (a *SegmentAligner) fillColumn(sc *Scratch, q []Segment, j int, packPrev bool) {
	m := len(a.ref.p)
	// Reslicing to m lets the compiler drop the loops' bounds checks.
	cost := a.fillCost(sc, q[j], m)[:m]
	col := a.ring[(j&1)*m:][:m]
	steps := sc.steps[(j&1)*stepSlot(m):][:m]
	pVert := a.ref.pVert[:m]

	// Row 0 is a free start: the first reference segment may match any
	// query column at just its pointwise cost. acc carries col[i−1] in a
	// register through the sequential pass — it is the loop dependency, so
	// reloading it from memory each iteration lengthens the critical path.
	// Row 0's decision is never read (the walk ends there), nor are column
	// 0's (the walk can only go up there); both are written so the array
	// holds no stale bits.
	acc := cost[0]
	col[0] = acc
	steps[0] = stepVert
	if j == 0 {
		for i := 1; i < m; i++ {
			// Same association as the general column below
			// ((cost + col[i−1]) + pVert) — float addition rounds per
			// operation, so regrouping would break bit-identity.
			acc = cost[i] + acc + pVert[i]
			col[i] = acc
			steps[i] = stepVert
		}
		a.lastRow[0] = acc
		return
	}
	horiz := a.ref.opts.Stiffness * q[j].Interval
	prev := a.ring[((j-1)&1)*m:][:m]
	diag := prev[0]
	for i := 1; i < m; i++ {
		best, step := acc+pVert[i], stepVert
		if left := prev[i] + horiz; left < best {
			best, step = left, stepHoriz
		}
		if diag <= best {
			step = stepDiag
			if diag < best {
				best = diag
			}
		}
		diag = prev[i]
		acc = cost[i] + best
		col[i] = acc
		steps[i] = step
	}
	a.lastRow[j] = acc
	if acc != acc || prev[m-1] != prev[m-1] || horiz-horiz != 0 {
		rederive(steps, col, prev, pVert, horiz)
	}
	if packPrev {
		a.packColumn(sc, j-1)
	}
}

// stepSlot is the length of one slot of the steps scratch for m rows: m
// rounded up to the 32-cell block the AVX2 pack reads.
func stepSlot(m int) int { return (m + 31) &^ 31 }

// packColumn packs filled column j's byte decisions from its slot of sc.steps
// into its ⌈m/4⌉ bytes of dir. Align packs each column one column late,
// after the next column's fill: a pack that reads the byte decisions just
// stored stalls until those stores leave the store buffer, which cost 6-9%
// of a whole alignment on measured profiles' segments.
func (a *SegmentAligner) packColumn(sc *Scratch, j int) {
	m := len(a.ref.p)
	stride := (m + 3) / 4
	slot := stepSlot(m)
	dst, src := a.dir[j*stride:][:stride], sc.steps[(j&1)*slot:][:slot]
	if useFillAsm {
		packStepsAVX2(&dst[0], &src[0], stride)
		return
	}
	packSteps(dst, src)
}

// rederive rewrites a filled column's one-byte decisions with the
// traceback predicate over its finished values: col is the column, prev
// its predecessor. fillColumn calls it, before packing, on the rare
// columns whose NaN operands could make its in-loop decisions differ from
// the predicate.
func rederive(steps []uint8, col, prev, pVert []float64, horiz float64) {
	for i := 1; i < len(col); i++ {
		vert := col[i-1] + pVert[i]
		left := prev[i] + horiz
		diag := prev[i-1]
		switch {
		case diag <= vert && diag <= left:
			steps[i] = stepDiag
		case vert <= left:
			steps[i] = stepVert
		default:
			steps[i] = stepHoriz
		}
	}
}

// packSteps packs one-byte decisions four to a byte into dst, cell i in
// bits 2(i%4) and up of dst[i/4]: packColumn's portable pass, and the
// reference its AVX2 pass is tested against.
func packSteps(dst, src []uint8) {
	for k := range dst {
		c := src[4*k:][:4]
		dst[k] = c[0] | c[1]<<2 | c[2]<<4 | c[3]<<6
	}
}

// fillCost is the fill's first pass for query segment qj: the pointwise matching
// costs of the coarse DTW recurrence — SegDist weighted by the shorter
// of the two segments' intervals — with the reference operands read from
// the flat panels. It is written as independent straight-line iterations
// over contiguous float streams with no cross-iteration dependency: the shape
// the compiler can keep in registers and unroll. The max(0, lo−hi, lo−hi)
// form equals the original comparison chain exactly — segment ranges are
// proper intervals, so at most one of the two gaps is positive — and the
// interval branch equals math.Min bit-for-bit on these finite
// non-negative operands.
func (a *SegmentAligner) fillCost(sc *Scratch, qj Segment, m int) []float64 {
	qLo, qHi, qInt := qj.Lo, qj.Hi, qj.Interval
	cost := sc.cost[:m]
	pLo := a.ref.pLo[:m]
	pHi := a.ref.pHi[:m]
	pInt := a.ref.pInt[:m]
	if useFillAsm && m >= 4 {
		// 4-wide vector pass; bit-identical to the scalar loop below
		// (see fillcost_amd64.go for the tie/NaN argument).
		fillCostAVX2(qLo, qHi, qInt, &pLo[0], &pHi[0], &pInt[0], &cost[0], m)
		return cost
	}
	for i := range cost {
		d := 0.0
		if v := pLo[i] - qHi; v > d {
			d = v
		}
		if v := qLo - pHi[i]; v > d {
			d = v
		}
		t := pInt[i]
		if qInt < t {
			t = qInt
		}
		cost[i] = t * d
	}
	return cost
}

// traceback walks the packed decisions back from the free end (m−1, endJ)
// to row 0 and reads the answer's columns off the way, building no path.
// Rows fall by at most one per step, so the walk passes through every
// row: SpanEnd is the column where it first reaches a row below the span
// end, SpanStart the column of its last step in the span's first row.
// Distance is left to the caller.
func (a *SegmentAligner) traceback(endJ int) (mt Match) {
	m := len(a.ref.p)
	stride := (m + 3) / 4
	i, j := m-1, endJ
	mt.End, mt.SpanEnd = endJ, -1
	for {
		if i < a.ref.spanHi && mt.SpanEnd < 0 {
			mt.SpanEnd = j
		}
		if i == a.ref.spanLo {
			mt.SpanStart = j
		}
		if i == 0 {
			break
		}
		if j == 0 {
			i--
			continue
		}
		switch a.dir[j*stride+i/4] >> (2 * (i % 4)) & 3 {
		case stepDiag:
			i, j = i-1, j-1
		case stepVert:
			i--
		default:
			j--
		}
	}
	return mt
}

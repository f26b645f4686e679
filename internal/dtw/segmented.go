package dtw

import (
	"math"
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

// segCost is the per-cell matching cost of the coarse DTW recurrence:
// the segment-range distance weighted by the shorter time interval.
func segCost(a, b Segment) float64 {
	return math.Min(a.Interval, b.Interval) * SegDist(a, b)
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

// segMatrix is a segment-DTW cost matrix backed by one flat slice, stored
// column-major (cell (i, j) lives at j*m+i) so the resumable aligner can
// extend it one query column at a time with a plain append.
type segMatrix struct {
	m int // rows: reference segments
	// off is the first query column the cells actually hold; columns
	// before it were left out by a state restore (see
	// SegmentAligner.RestoreState). Live aligners always run with off 0.
	off   int
	cells []float64
}

func (cm *segMatrix) at(i, j int) float64     { return cm.cells[(j-cm.off)*cm.m+i] }
func (cm *segMatrix) set(i, j int, v float64) { cm.cells[(j-cm.off)*cm.m+i] = v }

// cellFree recycles matrix backing arrays by power-of-two capacity
// class. Every resumable aligner (one per tracked tag) grows its matrix
// through doublings as its query extends, and a fresh make() pays the
// runtime's zeroing of the entire new capacity — which profiled as a
// quarter of daemon ingest. Cells are always written before read, so
// recycled arrays skip that cost entirely.
//
// This is an explicit byte-capped free-list rather than a sync.Pool:
// session churn allocates enough to trigger collections between one
// session's teardown and the next one's ramp-up, and sync.Pool's GC
// victim policy dropped the buffers exactly then — profiles showed the
// whole doubling ladder re-allocated (and re-zeroed) for every fresh
// session. A wide population runs one aligner per tag, all climbing the
// same size ladder together, so the list is capped by total retained
// bytes (cellFreeMaxBytes) rather than per-class counts — a per-class cap
// of a few arrays served a few tags and dropped the rest. float64 arrays
// are pointer-free, so retaining them adds no GC scan work, and the lock
// is uncontended in practice — arrays move only on capacity growth, which
// doubling makes logarithmic.
var (
	cellMu        sync.Mutex
	cellFree      [48][][]float64
	cellFreeBytes int
)

// cellFreeMaxBytes bounds the retained cell-array bytes (~a couple of
// sessions' worth of DP matrices for a wide population).
const cellFreeMaxBytes = 32 << 20

// getCells returns a zero-length slice with capacity ≥ need, recycled
// when possible. Capacities are exact powers of two so arrays re-enter
// their class on release. A request may be served from a few classes
// above its own: after one session warms the list, a fresh tag starts on
// a session-final-sized array and skips its whole regrowth ladder.
func getCells(need int) []float64 {
	if need < 1 {
		need = 1
	}
	k := bits.Len(uint(need - 1))
	cellMu.Lock()
	for j := k; j < k+6 && j < len(cellFree); j++ {
		if cl := cellFree[j]; len(cl) > 0 {
			c := cl[len(cl)-1]
			cl[len(cl)-1] = nil
			cellFree[j] = cl[:len(cl)-1]
			cellFreeBytes -= 8 << j
			cellMu.Unlock()
			return c
		}
	}
	cellMu.Unlock()
	return make([]float64, 0, 1<<k)
}

// putCells recycles a backing array obtained from getCells.
func putCells(c []float64) {
	n := cap(c)
	if n == 0 || n&(n-1) != 0 {
		return // not one of ours; let the GC have it
	}
	k := bits.Len(uint(n - 1))
	cellMu.Lock()
	if cellFreeBytes+8*n <= cellFreeMaxBytes {
		cellFree[k] = append(cellFree[k], c[:0])
		cellFreeBytes += 8 * n
	}
	cellMu.Unlock()
}

// Reference is the operand set of one segment-DTW reference, shared by
// every aligner built over it: the segments, the options, and the flat
// per-row panels the column fill reads (range bounds, intervals, and the
// precomputed vertical-step penalty Stiffness×interval). A detector over a
// wide tag population builds ONE Reference and hands every tag's aligner a
// pointer to it, so a blocked detection run streams one copy of the panels
// through the cache instead of one per tag — and the panels never need
// re-deriving per aligner. A Reference is immutable after construction and
// safe for concurrent readers.
type Reference struct {
	p                     []Segment
	opts                  SegmentAlignOpts
	pLo, pHi, pInt, pVert []float64
}

// NewReference derives the shared panels for a reference once.
func NewReference(p []Segment, opts SegmentAlignOpts) *Reference {
	m := len(p)
	r := &Reference{
		p: p, opts: opts,
		pLo: make([]float64, m), pHi: make([]float64, m),
		pInt: make([]float64, m), pVert: make([]float64, m),
	}
	for i := range p {
		r.pLo[i] = p[i].Lo
		r.pHi[i] = p[i].Hi
		r.pInt[i] = p[i].Interval
		r.pVert[i] = opts.Stiffness * p[i].Interval
	}
	return r
}

// Segments returns the reference segments the panels were derived from.
func (r *Reference) Segments() []Segment { return r.p }

// Len returns the number of reference segments — the DP row count every
// aligner over this reference fills per query column.
func (r *Reference) Len() int { return len(r.p) }

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
// Align compares the new query against the columns already held and keeps
// the longest unchanged prefix, so a query whose tail was rewritten (a
// re-segmentation after an out-of-order read) transparently degrades to
// recomputing from the first changed segment. The held state grows with the
// query: O(m·n) cells. A one-shot alignment is a fresh aligner's first
// Align. A SegmentAligner is not safe for concurrent use.
type SegmentAligner struct {
	// ref holds the reference segments, options and the flat per-row fill
	// operands. Aligners built by NewSharedAligner point at one Reference
	// shared across the whole tag population — the aligner itself is a
	// facade over the shared panels plus this tag's private DP state;
	// NewSegmentAligner owns a private one.
	ref *Reference
	q   []Segment // query segments the DP currently covers
	cm  segMatrix

	// cost is the per-column scratch of the fill's first pass: the
	// pointwise matching costs, computed branch-light over the flat
	// operand arrays before the sequential DP pass consumes them.
	cost []float64
	// lastRow mirrors row m−1 of the matrix contiguously (lastRow[j] =
	// cells[(j+1)m−1]): the free-end scan reads every column's final cell
	// on every Align, and walking the column-major matrix at stride m
	// missed cache on each step.
	lastRow []float64
	// path is the traceback scratch reused across Aligns; the Result
	// returned by Align aliases it (see the Align doc).
	path Path
	// lastStart is the previous Align's path-start column. A restore
	// rebuilds cells only from column lastStart−1 on (see TailBase): the
	// open end only ever moves forward, so a future traceback revisits
	// earlier columns only if the optimal path itself moves back — and
	// that case rebuilds the full matrix (see Align), keeping results and
	// future checkpoints byte-identical.
	lastStart int
	// pending marks a restored aligner whose held columns (cells and
	// last-row mirror) are not computed yet; the next Align computes them
	// before it reuses any (see RestoreState).
	pending bool
	// Traceback memo: when the free-end scan picks the same end column as
	// the previous alignment and no recomputed column reaches it (fillLo >
	// endJ), every cell the traceback would visit is unchanged, so the
	// held path IS the answer. A tag whose pass is over keeps its best end
	// fixed while the stream appends columns behind it — exactly the
	// steady state of a high-cadence snapshot loop, where the per-align
	// retrace otherwise costs O(m+n) each time.
	fillLo   int
	lastEndJ int
	endValid bool
}

// NewSegmentAligner builds an aligner over its own private Reference.
// Prefer NewSharedAligner when many aligners run the same reference.
func NewSegmentAligner(p []Segment, opts SegmentAlignOpts) *SegmentAligner {
	return NewSharedAligner(NewReference(p, opts))
}

// NewSharedAligner builds an aligner over an existing (shared) Reference:
// the aligner carries only its own DP state and scratch, so a thousand
// tags over one reference hold one copy of the panels.
func NewSharedAligner(ref *Reference) *SegmentAligner {
	return &SegmentAligner{ref: ref}
}

// Cols reports how many query columns of DP state are held — the next
// Align pays only for columns beyond the common prefix. A checkpoint
// records it next to TailBase.
func (a *SegmentAligner) Cols() int { return len(a.q) }

// Release returns the aligner's DP matrix to the shared free-list and
// clears its held columns. An aligner's matrix is its largest holding —
// the final-size array a tag grew into over a whole session — and without
// an explicit release it dies with the session while the free-list only
// ever sees the outgrown smaller rungs. The aligner remains usable; the
// next Align simply recomputes from scratch.
func (a *SegmentAligner) Release() {
	putCells(a.cm.cells)
	a.cm.cells = nil
	a.cm.off = 0
	a.q = a.q[:0]
	a.lastStart = 0
	a.endValid = false
	a.pending = false
}

// Align answers the open-end subsequence query over q: the whole reference
// must be consumed, q may match any contiguous run, ties prefer the latest
// end. It returns the result plus the first and last matched segment
// indices of q. Columns shared with the previous call are reused; only new
// or changed query segments are computed, and the answer is byte-identical
// to a fresh aligner's over the same q.
//
// The returned Result's Path is aligner-owned scratch, overwritten by the
// next Align on this aligner: callers that retain it across calls must
// copy it first.
func (a *SegmentAligner) Align(q []Segment) (Result, int, int) {
	lo, hi, ok := a.alignStart(q)
	if !ok {
		return Result{}, 0, 0
	}
	for j := lo; j < hi; j++ {
		a.extendColumn(j)
	}
	return a.alignFinish()
}

// alignStart is Align's serial front half: prefix-compare the held
// columns, absorb the new query, and reserve every column this alignment
// needs. It returns the column range [lo, hi) the caller must fill (via
// extendColumn, or interleaved with other aligners by AlignBatch) before
// alignFinish answers the query. ok is false when the alignment is empty.
func (a *SegmentAligner) alignStart(q []Segment) (lo, hi int, ok bool) {
	m := len(a.ref.p)
	if m == 0 || len(q) == 0 {
		return 0, 0, false
	}
	a.cm.m = m
	if cap(a.cost) < m {
		a.cost = make([]float64, m)
	}
	// Keep the longest prefix of held columns whose segments are unchanged.
	cp := 0
	for cp < len(a.q) && cp < len(q) && a.q[cp] == q[cp] {
		cp++
	}
	if a.pending && cp > a.cm.off {
		// A restored aligner reuses held columns: compute them now. (When
		// the reuse ends at or before off, everything is recomputed below
		// and the pending columns are simply dropped.)
		a.materialize()
	}
	a.pending = false
	a.q = append(a.q[:cp], q[cp:]...)
	if a.cm.off > 0 && cp <= a.cm.off {
		// The first changed segment lands in (or before) the region a
		// tail restore dropped, so the held columns cannot seed the
		// recurrence at cp. Recompute the whole matrix — the values are a
		// deterministic function of (reference, q), so nothing observable
		// changes.
		a.cm.off = 0
		cp = 0
	}
	// Reserve all columns this call needs up front (with doubling headroom
	// so a stream of small extensions regrows O(log n) times, not once per
	// snapshot): the extend loop then only reslices. Growth moves to a
	// recycled pooled array — a fresh make() would zero the whole new
	// capacity, and that memclr dominated ingest profiles.
	if need := m * (len(q) - a.cm.off); cap(a.cm.cells) < need {
		if c := 2 * cap(a.cm.cells); need < c {
			need = c
		}
		grown := append(getCells(need), a.cm.cells[:(cp-a.cm.off)*m]...)
		putCells(a.cm.cells)
		a.cm.cells = grown
	} else {
		a.cm.cells = a.cm.cells[:(cp-a.cm.off)*m]
	}
	if cap(a.lastRow) < len(q) {
		nl := make([]float64, len(q), 2*len(q))
		copy(nl, a.lastRow[:cp])
		a.lastRow = nl
	} else {
		a.lastRow = a.lastRow[:len(q)]
	}
	a.fillLo = cp
	return cp, len(q), true
}

// alignFinish is Align's serial back half, run after every column from
// alignStart's range has been filled: the free-end scan and traceback.
func (a *SegmentAligner) alignFinish() (Result, int, int) {
	m := len(a.ref.p)
	// Free end: pick the cheapest cell in the last reference row — read
	// from the contiguous mirror, not the strided matrix. Ties prefer the
	// latest end so zero-cost plateaus match the whole pattern region
	// rather than a truncated prefix.
	n := len(a.q)
	endJ := 0
	last := a.lastRow[:n]
	best := last[0]
	for j := 1; j < n; j++ {
		if c := last[j]; c <= best {
			best, endJ = c, j
		}
	}
	if a.endValid && endJ == a.lastEndJ && a.fillLo > endJ && len(a.path) > 0 {
		// Same best end as last time and every column the traceback visits
		// (≤ endJ) predates this call's recompute range: the held path and
		// its start are the answer, cell for cell.
		return Result{Distance: best, Path: a.path}, a.path[0].J, endJ
	}
	path := tracebackStiff(&a.cm, a.ref.p, a.q, a.ref.opts, m-1, endJ, a.path)
	if path == nil {
		// The optimal path walked into the truncated region (possible
		// only after a tail-state restore, when the best open end moved
		// behind the dropped columns). Rebuild the full matrix — identical
		// values, deterministically — and retrace.
		a.rebuildAll()
		path = tracebackStiff(&a.cm, a.ref.p, a.q, a.ref.opts, m-1, endJ, a.path)
	}
	a.path = path
	a.lastStart = path[0].J
	a.lastEndJ = endJ
	a.endValid = true
	return Result{Distance: best, Path: path}, path[0].J, endJ
}

// rebuildAll recomputes every DP column from scratch, restoring the
// full-matrix invariant (off == 0) after a tail restore proved too short
// for a traceback. Cell values are a pure function of (reference, query),
// so the rebuilt matrix is identical to one grown live.
func (a *SegmentAligner) rebuildAll() {
	m := len(a.ref.p)
	a.cm.off = 0
	if need := m * len(a.q); cap(a.cm.cells) < need {
		putCells(a.cm.cells)
		a.cm.cells = getCells(need)
	}
	a.cm.cells = a.cm.cells[:0]
	for j := range a.q {
		a.extendColumn(j)
	}
}

// extendColumn computes DP column j from column j-1 in the held matrix.
func (a *SegmentAligner) extendColumn(j int) {
	col, prev := a.columnSlices(j, len(a.ref.p))
	a.fillColumn(j, col, prev)
}

// fillColumn computes DP column j into col from its predecessor prev (nil
// only for column 0) in two passes, and records the column's last-row
// cell in the mirror.
//
// Pass 1 is the pointwise matching cost — segCost/SegDist with the
// reference operands read from the flat arrays. It is written as
// independent straight-line iterations over four contiguous float
// streams with no cross-iteration dependency: the shape the compiler can
// keep in registers and unroll, and the shape a vectorizing backend
// could lift wholesale. The max(0, lo−hi, lo−hi) form equals the
// original comparison chain exactly — segment ranges are proper
// intervals, so at most one of the two gaps is positive — and the
// interval branch equals math.Min bit-for-bit on these finite
// non-negative operands.
//
// Pass 2 is the sequential min-of-three DP, which carries the col[i-1]
// dependency and stays scalar; splitting the cost out of it roughly
// halves the work on that critical path.
func (a *SegmentAligner) fillColumn(j int, col, prev []float64) {
	m := len(a.ref.p)
	// Reslicing to m lets the compiler drop the loops' bounds checks.
	cost := a.fillCost(j, m)[:m]
	col = col[:m]

	// Row 0 is a free start: the first reference segment may match any
	// query column at just its pointwise cost. acc carries col[i−1] in a
	// register through the sequential pass — it is the loop dependency, so
	// reloading it from memory each iteration lengthens the critical path.
	acc := cost[0]
	col[0] = acc
	pVert := a.ref.pVert[:m]
	if j == 0 {
		for i := 1; i < m; i++ {
			// Same association as the general column below
			// ((cost + col[i−1]) + pVert) — float addition rounds per
			// operation, so regrouping would break bit-identity.
			acc = cost[i] + acc + pVert[i]
			col[i] = acc
		}
		a.lastRow[0] = acc
		return
	}
	horiz := a.ref.opts.Stiffness * a.q[j].Interval
	prev = prev[:m]
	diag := prev[0]
	for i := 1; i < m; i++ {
		best := acc + pVert[i]
		if left := prev[i] + horiz; left < best {
			best = left
		}
		if diag < best {
			best = diag
		}
		diag = prev[i]
		acc = cost[i] + best
		col[i] = acc
	}
	a.lastRow[j] = acc
}

// columnSlices grows the matrix by column j and returns it plus column
// j−1 (nil when j is the first held column). Capacity was reserved by
// alignStart, so the growth is a reslice.
func (a *SegmentAligner) columnSlices(j, m int) (col, prev []float64) {
	base := (j - a.cm.off) * m
	a.cm.cells = a.cm.cells[:base+m]
	col = a.cm.cells[base : base+m : base+m]
	if j > a.cm.off {
		prev = a.cm.cells[base-m : base : base]
	}
	return col, prev
}

// fillCost is the fill's first pass for column j: the pointwise matching
// costs — segCost/SegDist with the reference operands read from the flat
// panels. It is written as independent straight-line iterations over
// contiguous float streams with no cross-iteration dependency: the shape
// the compiler can keep in registers and unroll. The max(0, lo−hi, lo−hi)
// form equals the original comparison chain exactly — segment ranges are
// proper intervals, so at most one of the two gaps is positive — and the
// interval branch equals math.Min bit-for-bit on these finite
// non-negative operands.
func (a *SegmentAligner) fillCost(j, m int) []float64 {
	qj := a.q[j]
	qLo, qHi, qInt := qj.Lo, qj.Hi, qj.Interval
	cost := a.cost[:m]
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

// BatchAlign is one aligner's answer from AlignBatch — exactly the three
// values Align returns: the open-end result plus the matched start and
// end columns. Res.Path aliases the owning aligner's scratch, like Align.
type BatchAlign struct {
	Res        Result
	Start, End int
}

// blockLane is one aligner's pending column range during AlignBatch.
type blockLane struct {
	a     *SegmentAligner
	j, hi int
}

// laneScratch pools AlignBatch's bookkeeping so a blocked detection run
// allocates nothing beyond what the per-aligner Aligns themselves would.
type laneScratch struct {
	lanes []blockLane
	ok    []bool
}

var lanePool = sync.Pool{New: func() any { return new(laneScratch) }}

// AlignBatch answers the open-end query for a run of aligners at once:
// out[k] is byte-identical to as[k].Align(qs[k]), including every DP cell
// value, path and tie-break. The difference is purely mechanical — the
// column fills of aligners sharing a Reference are interleaved four at a
// time, so one pass over the shared panels feeds four independent DP
// recurrences. That matters because the fill's sequential pass carries a
// loop dependency (col[i] needs col[i−1]) whose floating-point latency a
// single tag cannot hide; four independent accumulator chains keep the FP
// units busy, and the shared panel streams are read once per group
// instead of once per tag. Aligners must be distinct; lanes over
// different References simply fill in smaller groups.
//
// as, qs and out must have equal length. Like Align, each out entry's
// Path aliases its aligner's scratch, overwritten by that aligner's next
// alignment.
func AlignBatch(as []*SegmentAligner, qs [][]Segment, out []BatchAlign) {
	sc, _ := lanePool.Get().(*laneScratch)
	if sc == nil {
		sc = new(laneScratch)
	}
	lanes := sc.lanes[:0]
	oks := sc.ok[:0]
	for k, a := range as {
		lo, hi, ok := a.alignStart(qs[k])
		oks = append(oks, ok)
		if !ok {
			out[k] = BatchAlign{}
			continue
		}
		// Seed pass: a lane's first-ever column has no predecessor — the
		// fused kernel assumes one — so fill it serially; only brand-new
		// tags (or full rebuilds) hit this, once.
		if lo == 0 {
			a.extendColumn(0)
			lo = 1
		}
		if lo < hi {
			lanes = append(lanes, blockLane{a: a, j: lo, hi: hi})
		}
	}
	for len(lanes) > 0 {
		// Group up to four lanes over the first lane's Reference and fill
		// in lockstep until the shortest of them drains; singletons and
		// odd tails fall back to the serial column loop.
		ref := lanes[0].a.ref
		var pick [4]*blockLane
		np := 0
		for i := 0; i < len(lanes) && np < 4; i++ {
			if lanes[i].a.ref == ref {
				pick[np] = &lanes[i]
				np++
			}
		}
		switch np {
		case 4:
			l0, l1, l2, l3 := pick[0], pick[1], pick[2], pick[3]
			n := min(min(l0.hi-l0.j, l1.hi-l1.j), min(l2.hi-l2.j, l3.hi-l3.j))
			for s := 0; s < n; s++ {
				extendCols4(ref, l0.a, l0.j, l1.a, l1.j, l2.a, l2.j, l3.a, l3.j)
				l0.j++
				l1.j++
				l2.j++
				l3.j++
			}
		case 2, 3:
			l0, l1 := pick[0], pick[1]
			n := min(l0.hi-l0.j, l1.hi-l1.j)
			for s := 0; s < n; s++ {
				extendCols2(ref, l0.a, l0.j, l1.a, l1.j)
				l0.j++
				l1.j++
			}
		default:
			l0 := pick[0]
			for ; l0.j < l0.hi; l0.j++ {
				l0.a.extendColumn(l0.j)
			}
		}
		w := 0
		for _, ln := range lanes {
			if ln.j < ln.hi {
				lanes[w] = ln
				w++
			}
		}
		lanes = lanes[:w]
	}
	for k, a := range as {
		if oks[k] {
			out[k].Res, out[k].Start, out[k].End = a.alignFinish()
		}
	}
	sc.lanes = lanes[:0]
	sc.ok = oks[:0]
	lanePool.Put(sc)
}

// extendCols4 fills one DP column for each of four aligners over the same
// Reference: pass 1 (the pointwise costs) runs per lane — it is already
// dependency-free — and pass 2 runs the four sequential min-of-three
// recurrences interleaved, four independent loop-carried accumulator
// chains overlapping where a single chain's FP latency stalls. Each lane
// executes exactly the operations extendColumn would run for it, in the
// same order, so the cells are bit-identical. Every lane's column index
// must be past its first held column (callers seed column 0 serially).
func extendCols4(ref *Reference, a0 *SegmentAligner, j0 int, a1 *SegmentAligner, j1 int, a2 *SegmentAligner, j2 int, a3 *SegmentAligner, j3 int) {
	m := len(ref.p)
	col0, prev0 := a0.columnSlices(j0, m)
	col1, prev1 := a1.columnSlices(j1, m)
	col2, prev2 := a2.columnSlices(j2, m)
	col3, prev3 := a3.columnSlices(j3, m)
	c0 := a0.fillCost(j0, m)
	c1 := a1.fillCost(j1, m)
	c2 := a2.fillCost(j2, m)
	c3 := a3.fillCost(j3, m)
	st := ref.opts.Stiffness
	h0 := st * a0.q[j0].Interval
	h1 := st * a1.q[j1].Interval
	h2 := st * a2.q[j2].Interval
	h3 := st * a3.q[j3].Interval
	acc0, acc1, acc2, acc3 := c0[0], c1[0], c2[0], c3[0]
	col0[0], col1[0], col2[0], col3[0] = acc0, acc1, acc2, acc3
	pVert := ref.pVert[:m]
	// The diagonal operand is re-loaded as prev[i−1] instead of carried in
	// a register like extendColumn does: four lanes' acc/diag/horiz
	// registers plus temporaries exceed the sixteen XMM registers, and the
	// resulting spills land on the very accumulator chains the interleave
	// exists to overlap. prev[i−1] was loaded last iteration, so the
	// re-load hits L1 and sits off the critical path. Same value, same
	// bits.
	for i := 1; i < m; i++ {
		v := pVert[i]
		b0 := acc0 + v
		if l := prev0[i] + h0; l < b0 {
			b0 = l
		}
		if d := prev0[i-1]; d < b0 {
			b0 = d
		}
		acc0 = c0[i] + b0
		col0[i] = acc0
		b1 := acc1 + v
		if l := prev1[i] + h1; l < b1 {
			b1 = l
		}
		if d := prev1[i-1]; d < b1 {
			b1 = d
		}
		acc1 = c1[i] + b1
		col1[i] = acc1
		b2 := acc2 + v
		if l := prev2[i] + h2; l < b2 {
			b2 = l
		}
		if d := prev2[i-1]; d < b2 {
			b2 = d
		}
		acc2 = c2[i] + b2
		col2[i] = acc2
		b3 := acc3 + v
		if l := prev3[i] + h3; l < b3 {
			b3 = l
		}
		if d := prev3[i-1]; d < b3 {
			b3 = d
		}
		acc3 = c3[i] + b3
		col3[i] = acc3
	}
	a0.lastRow[j0] = acc0
	a1.lastRow[j1] = acc1
	a2.lastRow[j2] = acc2
	a3.lastRow[j3] = acc3
}

// extendCols2 is extendCols4 for a pair — the odd-tail form.
func extendCols2(ref *Reference, a0 *SegmentAligner, j0 int, a1 *SegmentAligner, j1 int) {
	m := len(ref.p)
	col0, prev0 := a0.columnSlices(j0, m)
	col1, prev1 := a1.columnSlices(j1, m)
	c0 := a0.fillCost(j0, m)
	c1 := a1.fillCost(j1, m)
	st := ref.opts.Stiffness
	h0 := st * a0.q[j0].Interval
	h1 := st * a1.q[j1].Interval
	acc0, acc1 := c0[0], c1[0]
	col0[0], col1[0] = acc0, acc1
	d0, d1 := prev0[0], prev1[0]
	pVert := ref.pVert[:m]
	for i := 1; i < m; i++ {
		v := pVert[i]
		b0 := acc0 + v
		if l := prev0[i] + h0; l < b0 {
			b0 = l
		}
		if d0 < b0 {
			b0 = d0
		}
		d0 = prev0[i]
		acc0 = c0[i] + b0
		col0[i] = acc0
		b1 := acc1 + v
		if l := prev1[i] + h1; l < b1 {
			b1 = l
		}
		if d1 < b1 {
			b1 = d1
		}
		d1 = prev1[i]
		acc1 = c1[i] + b1
		col1[i] = acc1
	}
	a0.lastRow[j0] = acc0
	a1.lastRow[j1] = acc1
}

// tracebackStiff reconstructs the optimal path of a stiffness-weighted
// open-end segment alignment: the path may start at any column of the
// first row (subsequence matching). It returns nil when the walk
// would read a column before cm.off — a tail-restored matrix that turned
// out too short — in which case the caller must rebuild the full matrix
// and retrace; a full matrix (off 0) always yields a path.
func tracebackStiff(cm *segMatrix, p, q []Segment, opts SegmentAlignOpts, i, j int, dst Path) Path {
	// A warping path from (i, j) back to row 0 takes at most i+j+1 steps:
	// one exact-capacity allocation instead of append doublings — skipped
	// entirely when the caller hands back a big-enough scratch. A scratch
	// that must grow doubles, so a steadily lengthening query (the
	// incremental ingest pattern) reallocates O(log n) times, not per call.
	rev := dst[:0]
	if need := i + j + 1; cap(rev) < need {
		if c := 2 * cap(rev); c > need {
			need = c
		}
		rev = make(Path, 0, need)
	}
	for {
		rev = append(rev, Step{I: i, J: j})
		if i == 0 {
			break
		}
		if j == 0 {
			i--
			continue
		}
		if j <= cm.off {
			// Deciding the step at (i, j) reads column j−1, which a
			// tail-restored matrix no longer holds. Never reached with a
			// full matrix (off 0 makes the j == 0 branch fire first); the
			// caller rebuilds the full matrix and retraces.
			return nil
		}
		vert := cm.at(i-1, j) + opts.Stiffness*p[i].Interval
		horiz := cm.at(i, j-1) + opts.Stiffness*q[j].Interval
		diag := cm.at(i-1, j-1)
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

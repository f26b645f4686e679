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

// sameSegment reports whether a and b are equal bit for bit, the test a
// held column must pass to be reused: == would keep a column across a
// change in the sign of a zero (which can change the distance's sign) and
// would never keep one whose segment holds a NaN.
func sameSegment(a, b Segment) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		math.Float64bits(a.Interval) == math.Float64bits(b.Interval) &&
		a.Start == b.Start && a.End == b.End
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

// Traceback decisions, one byte per DP cell: the predecessor the optimal
// path takes out of the cell. The recurrence needs only the previous
// column's values, so the aligner rolls those through a two-column ring
// and keeps, for every held column, just these bytes (the traceback) and
// the column's last-row value (the free-end scan).
const (
	stepDiag  uint8 = iota // to (i−1, j−1)
	stepVert               // to (i−1, j): the reference advances alone
	stepHoriz              // to (i, j−1): the query advances alone
)

// dirFree recycles decision arrays by power-of-two capacity class. Every
// resumable aligner (one per tracked tag) grows its array through
// doublings as its query extends, and a fresh make() pays the runtime's
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

// dirFreeMaxBytes bounds the retained decision-array bytes (~a couple of
// sessions' worth of DP state for a wide population).
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
// recomputing: from the first changed segment when it is one of the last
// two columns, from column 0 otherwise. The held state grows with the
// query: one traceback decision byte per cell, O(m·n) bytes. A one-shot
// alignment is a fresh aligner's first Align. A SegmentAligner is not safe
// for concurrent use.
type SegmentAligner struct {
	// ref holds the reference segments, options and the flat per-row fill
	// operands. Aligners built by NewSharedAligner point at one Reference
	// shared across the whole tag population — the aligner itself is a
	// facade over the shared panels plus this tag's private DP state;
	// NewSegmentAligner owns a private one.
	ref *Reference
	q   []Segment // query segments the DP currently covers
	// dir holds the traceback decision of every cell of every held
	// column, column-major: cell (i, j) at j*m+i.
	dir []uint8
	// ring holds the DP values of the last two filled columns: column j in
	// slot j&1. ringEnd is one past the last filled column, so the ring
	// holds columns ringEnd−1 and ringEnd−2; 0 means it holds nothing (a
	// fresh, released or restored aligner).
	ring    []float64
	ringEnd int

	// cost is the per-column scratch of the fill's first pass: the
	// pointwise matching costs, computed branch-light over the flat
	// operand arrays before the sequential DP pass consumes them.
	cost []float64
	// lastRow holds every held column's last-row value contiguously: the
	// free-end scan reads all of them on every Align.
	lastRow []float64
	// path is the traceback scratch reused across Aligns; the Result
	// returned by Align aliases it (see the Align doc).
	path Path
	// off and lastStart make up TailBase, a checkpoint field. lastStart is
	// the previous Align's path-start column. off is the base a state
	// restore set (see RestoreState); it drops to 0 when an Align rewrites
	// a column at or before it, or when a path step at a row past 0 lands
	// in a column in (0, off]. Nothing reads the DP through either.
	off       int
	lastStart int
	// Traceback memo: when the free-end scan picks the same end column as
	// the previous alignment and no changed column reaches it, every
	// decision the traceback would visit is unchanged, so the held path IS
	// the answer. A tag whose pass is over keeps its best end fixed while
	// the stream appends columns behind it — exactly the steady state of a
	// high-cadence snapshot loop, where the per-align retrace otherwise
	// costs O(m+n) each time.
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

// Release returns the aligner's decision array to the shared free-list
// and clears its held columns. The array is an aligner's largest holding
// — the final-size array a tag grew into over a whole session — and
// without an explicit release it dies with the session while the
// free-list only ever sees the outgrown smaller rungs. The aligner
// remains usable; the next Align simply recomputes from scratch.
func (a *SegmentAligner) Release() {
	putDir(a.dir)
	a.dir = nil
	a.ringEnd = 0
	a.off = 0
	a.q = a.q[:0]
	a.lastStart = 0
	a.endValid = false
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
	m := len(a.ref.p)
	n := len(q)
	if m == 0 || n == 0 {
		return Result{}, 0, 0
	}
	if cap(a.cost) < m {
		a.cost = make([]float64, m)
	}
	if cap(a.ring) < 2*m {
		a.ring = make([]float64, 2*m)
	}
	// Keep the longest prefix of held columns whose segments are unchanged.
	cp := 0
	for cp < len(a.q) && cp < n && sameSegment(a.q[cp], q[cp]) {
		cp++
	}
	if cp <= a.off {
		a.off = 0
	}
	// The held decisions and last-row values cover every held column,
	// unless a restore left them empty (ringEnd 0, so cp > ringEnd). Column
	// cp extends from column cp−1's values, which the ring holds only when
	// cp is one of the last two columns filled — append-only growth, or a
	// rewrite of the last column. Any other extension, and the first Align
	// after a restore, recomputes from column 0: the values are a
	// deterministic function of (reference, q), so the rewritten prefix is
	// byte-identical.
	lo := cp
	if cp > a.ringEnd || (cp < n && cp < a.ringEnd-1) {
		lo = 0
	}
	// Reserve all columns this call needs up front (with doubling headroom
	// so a stream of small extensions regrows O(log n) times, not once per
	// snapshot). Growth moves to a recycled pooled array — a fresh make()
	// would zero the whole new capacity.
	if need := m * n; cap(a.dir) < need {
		if c := 2 * cap(a.dir); need < c {
			need = c
		}
		grown := append(getDir(need), a.dir[:lo*m]...)
		putDir(a.dir)
		a.dir = grown
	}
	a.dir = a.dir[:m*n]
	if cap(a.lastRow) < n {
		nl := make([]float64, n, 2*n)
		copy(nl, a.lastRow[:lo])
		a.lastRow = nl
	} else {
		a.lastRow = a.lastRow[:n]
	}
	a.q = append(a.q[:cp], q[cp:]...)
	for j := lo; j < n; j++ {
		a.fillColumn(j)
	}
	if lo < n {
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
	if a.endValid && endJ == a.lastEndJ && cp > endJ && len(a.path) > 0 {
		// Same best end as last time and every column the traceback visits
		// (≤ endJ) predates this call's first changed column — a column
		// recomputed from 0 gets the same decisions back: the held path and
		// its start are the answer, cell for cell.
		return Result{Distance: best, Path: a.path}, a.path[0].J, endJ
	}
	path, behind := tracebackStiff(a.dir, m, m-1, endJ, a.off, a.path)
	if behind {
		a.off = 0
	}
	a.path = path
	a.lastStart = path[0].J
	a.lastEndJ = endJ
	a.endValid = true
	return Result{Distance: best, Path: path}, path[0].J, endJ
}

// fillColumn computes DP column j into its ring slot from column j−1's
// (held in the other slot; none for column 0), records each cell's
// traceback decision, and records the column's last-row value.
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
func (a *SegmentAligner) fillColumn(j int) {
	m := len(a.ref.p)
	// Reslicing to m lets the compiler drop the loops' bounds checks.
	cost := a.fillCost(j, m)[:m]
	col := a.ring[(j&1)*m:][:m]
	dir := a.dir[j*m:][:m]
	pVert := a.ref.pVert[:m]

	// Row 0 is a free start: the first reference segment may match any
	// query column at just its pointwise cost. acc carries col[i−1] in a
	// register through the sequential pass — it is the loop dependency, so
	// reloading it from memory each iteration lengthens the critical path.
	// Row 0's decision is never read (the walk ends there), nor are column
	// 0's (the walk can only go up there); both are written so the array
	// holds no stale bytes.
	acc := cost[0]
	col[0] = acc
	dir[0] = stepVert
	if j == 0 {
		for i := 1; i < m; i++ {
			// Same association as the general column below
			// ((cost + col[i−1]) + pVert) — float addition rounds per
			// operation, so regrouping would break bit-identity.
			acc = cost[i] + acc + pVert[i]
			col[i] = acc
			dir[i] = stepVert
		}
		a.lastRow[0] = acc
		return
	}
	horiz := a.ref.opts.Stiffness * a.q[j].Interval
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
		dir[i] = step
	}
	a.lastRow[j] = acc
	if acc != acc || prev[m-1] != prev[m-1] || horiz-horiz != 0 {
		rederive(dir, col, prev, pVert, horiz)
	}
}

// rederive rewrites a filled column's decisions with the traceback
// predicate over its finished values: col is the column, prev its
// predecessor. fillColumn calls it on the rare columns whose NaN operands
// could make its in-loop decisions differ from the predicate.
func rederive(dir []uint8, col, prev, pVert []float64, horiz float64) {
	for i := 1; i < len(col); i++ {
		vert := col[i-1] + pVert[i]
		left := prev[i] + horiz
		diag := prev[i-1]
		switch {
		case diag <= vert && diag <= left:
			dir[i] = stepDiag
		case vert <= left:
			dir[i] = stepVert
		default:
			dir[i] = stepHoriz
		}
	}
}

// fillCost is the fill's first pass for column j: the pointwise matching
// costs of the coarse DTW recurrence — SegDist weighted by the shorter
// of the two segments' intervals — with the reference operands read from
// the flat panels. It is written as independent straight-line iterations
// over contiguous float streams with no cross-iteration dependency: the shape
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

// tracebackStiff reconstructs the optimal path of a stiffness-weighted
// open-end segment alignment from cell (i, j) by walking the decision
// bytes of an m-row column-major dir: the path may start at any column of
// the first row (subsequence matching). behind reports a step at a row
// past 0 in a column in (0, off] — see SegmentAligner.off.
func tracebackStiff(dir []uint8, m, i, j, off int, dst Path) (path Path, behind bool) {
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
		if j <= off {
			behind = true
		}
		switch dir[j*m+i] {
		case stepDiag:
			i--
			j--
		case stepVert:
			i--
		default:
			j--
		}
	}
	reverse(rev)
	return rev, behind
}

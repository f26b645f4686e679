package profile

import (
	"math"

	"repro/internal/dtw"
)

// SegmentCache makes Segmentize resumable for an append-only profile: it
// caches the segment list and, when the profile has only grown since the
// last call, re-runs the segmentation scan from the start of the final
// cached segment instead of from sample 0.
//
// Correctness rests on the scan's locality: a segment's cut position is a
// pure forward function of its starting index and the samples from there on
// — a chunk is cut either at its first phase wrap or at `w` samples, and
// appending samples can move neither for any segment that did not end at
// the old profile tail. Only the last segment (which always ends at the
// profile tail) is provisional, so it alone is dropped and rescanned; the
// result is element-for-element identical to a fresh Segmentize, which the
// profile tests assert over randomized growth patterns.
//
// The cache trusts callers about append-onlyness: a profile that was
// re-sorted (an out-of-order read landed and Builder re-ordered the
// samples) changes history the cache cannot see, so the owner must call
// Invalidate first — pipeline.Engine does this off Builder.Generation. A
// profile that shrank is detected and rebuilt defensively. A SegmentCache
// is not safe for concurrent use.
type SegmentCache struct {
	w    int
	segs []dtw.Segment
	n    int // samples covered by segs; −1 once invalidated
}

// NewSegmentCache builds a cache for segment width w (clamped to 1 like
// Segmentize).
func NewSegmentCache(w int) *SegmentCache {
	if w < 1 {
		w = 1
	}
	return &SegmentCache{w: w}
}

// Invalidate marks the cached segmentation stale; the next Segments call
// rebuilds from sample 0. Call it whenever the profile changed other than
// by appending (e.g. it was re-sorted after an out-of-order read). The
// stale list stays until that rebuild, which compares against it.
func (c *SegmentCache) Invalidate() {
	c.n = -1
}

// Segments returns p.Segmentize(w), reusing every cached segment that
// appended samples cannot have changed, and the first index at which the
// returned list differs bit for bit from the list the previous call
// returned: a segment whose fields differ in any bit (the sign of a zero,
// a NaN's payload) counts as changed, and so does a segment past the
// shorter list's end. A caller that resumes work per segment — the
// detector's DP columns — keeps everything before that index. On append-only
// growth it is the first rescanned segment that came out different;
// with no new samples it is len(segs); after Invalidate or a shrink the
// rebuild compares every segment against the stale list as it overwrites
// it.
//
// The returned slice is owned by the cache and is overwritten by the next
// call — callers needing a stable view must copy (the V-zone detector
// consumes it within one detection pass).
func (c *SegmentCache) Segments(p *Profile) (segs []dtw.Segment, changed int) {
	n := p.Len()
	if n == c.n {
		return c.segs, len(c.segs)
	}
	keep, start := 0, 0
	if k := len(c.segs); k > 0 && c.n >= 0 && n > c.n {
		// The last cached segment ends at the old profile tail: its cut may
		// move now that more samples follow, so rescan from its start. All
		// earlier segments ended at a wrap or a full w-chunk and are final.
		keep, start = k-1, c.segs[k-1].Start
	}
	c.segs, changed = p.appendSegments(c.segs, keep, start, c.w)
	c.n = n
	return c.segs, changed
}

// sameSegment reports whether a and b are equal bit for bit, the test a
// resumed DP column must pass to be kept: == would keep a column across a
// change in the sign of a zero (which can change the distance's sign) and
// would never keep one whose segment holds a NaN.
func sameSegment(a, b dtw.Segment) bool {
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi) &&
		math.Float64bits(a.Interval) == math.Float64bits(b.Interval) &&
		a.Start == b.Start && a.End == b.End
}

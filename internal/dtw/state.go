package dtw

import "fmt"

// TailBase reports the column before the last path start, or the base a
// state restore set (see RestoreState) while it stands, whichever is
// later. The open end — hence any future traceback — only moves forward,
// merging into the previous path's parent chain no earlier than its
// start, so columns before the base are the ones a future alignment is
// least likely to revisit. A checkpoint records it next to the column
// count. The aligner holds the decisions of every column, so nothing
// depends on the base beyond the checkpoint bytes it fixes.
func (a *SegmentAligner) TailBase() int {
	base := a.off
	if s := a.held.Start - 1; s > base {
		base = s
	}
	return base
}

// RestoreState resumes an aligner built over the same reference and
// options as the one that wrote a checkpoint: q is the query it held and
// base its TailBase. Nothing of the DP is decoded — the decisions and
// values are a deterministic function of (reference, q) — and nothing is
// computed yet: the first Align computes every column, so a session that
// is restored and never extended pays no DP work, and a hostile query
// length cannot size an allocation at restore time.
func (a *SegmentAligner) RestoreState(q []Segment, base int) error {
	if base < 0 || base > len(q) {
		return fmt.Errorf("dtw: aligner base %d for %d columns", base, len(q))
	}
	putDir(a.dir)
	a.dir = nil
	a.ringEnd = 0
	a.q = append(a.q[:0], q...)
	a.off = base
	a.lastRow = a.lastRow[:0]
	// No answer is held for the restored columns; the next Align must
	// walk the decisions it recomputes.
	a.held, a.heldValid = Match{}, false
	return nil
}

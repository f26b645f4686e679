package dtw

import "fmt"

// TailBase reports the first query column a resumed aligner can read: the
// column before the last path start (or the held matrix's first column,
// if later). Extension needs only the final column, the free-end scan
// reads the full last-row mirror, and the open end — hence any future
// traceback — only moves forward, merging into the previous path's parent
// chain no earlier than its start. A checkpoint records this base next to
// the column count, and a restored aligner holds cells for [base, cols)
// only, so its matrix is bounded by the alignment's active region instead
// of the session's age. If a later traceback does walk behind the base,
// Align detects it and rebuilds the full matrix — the same values, so
// results and later checkpoints stay byte-identical.
func (a *SegmentAligner) TailBase() int {
	base := a.cm.off
	if s := a.lastStart - 1; s > base {
		base = s
	}
	return base
}

// RestoreState resumes an aligner built over the same reference and
// options as the one that wrote a checkpoint: q is the query it held and
// base its TailBase. Nothing of the DP is decoded — the cells are a
// deterministic function of (reference, q) — and nothing is computed yet:
// the first Align rebuilds the held columns (see materialize), so a
// session that is restored and never extended pays no DP work, and a
// hostile query length cannot size an allocation at restore time. The
// aligner then holds exactly what a tail-truncated decode would: cells
// for columns [base, len(q)) and the full last-row mirror.
func (a *SegmentAligner) RestoreState(q []Segment, base int) error {
	if base < 0 || base > len(q) {
		return fmt.Errorf("dtw: aligner base %d for %d columns", base, len(q))
	}
	putCells(a.cm.cells)
	a.cm.cells = nil
	a.q = append(a.q[:0], q...)
	a.cm.off = base
	a.lastRow = a.lastRow[:0]
	a.lastStart = 0
	// The restored columns are not the ones a held path was traced over;
	// the next alignFinish must retrace.
	a.endValid = false
	a.pending = len(q) > 0
	return nil
}

// materialize computes the columns a RestoreState left pending: the full
// last-row mirror and the cells of columns [off, len(q)). Columns before
// off roll through a two-column scratch — only their last-row cell is
// kept — so the rebuild never holds the full m×n matrix the writer
// dropped. The values are the live fill's, bit for bit.
func (a *SegmentAligner) materialize() {
	a.pending = false
	m := len(a.ref.p)
	n := len(a.q)
	off := a.cm.off
	a.cm.m = m
	a.cm.cells = getCells(m * (n - off))
	if cap(a.lastRow) < n {
		a.lastRow = make([]float64, n, 2*n)
	}
	a.lastRow = a.lastRow[:n]
	var prev []float64
	if off > 0 {
		roll := getCells(2 * m)[:2*m]
		for j := 0; j < off; j++ {
			col := roll[(j&1)*m : (j&1)*m+m]
			a.fillColumn(j, col, prev)
			prev = col
		}
		defer putCells(roll)
	}
	for j := off; j < n; j++ {
		a.cm.cells = a.cm.cells[:(j-off+1)*m]
		col := a.cm.cells[(j-off)*m:]
		a.fillColumn(j, col, prev)
		prev = col
	}
}

// Package dtw implements Dynamic Time Warping: the classic O(MN)
// dynamic-programming alignment, kept as the paper's unoptimized
// sample-level baseline, and the paper's segment-level coarse DTW that
// reduces the complexity to O(MN/w^2) (Section 3.1.2 of the STPP paper),
// in the resumable open-end form V-zone detection runs.
package dtw

import (
	"math"
	"sync"
	"sync/atomic"
)

// Path is a warping path: a sequence of (i, j) index pairs into the two
// aligned sequences, monotone in both coordinates.
type Path []Step

// Step is one cell of a warping path.
type Step struct {
	I, J int
}

// Result is the outcome of a DTW alignment.
type Result struct {
	// Distance is the accumulated cost of the optimal warping path.
	Distance float64
	// Path is the optimal warping path from (0,0) to (len(a)-1, len(b)-1)
	// (or to the best open end for subsequence variants).
	Path Path
}

// Dist is a pointwise distance function between elements of the two
// sequences.
type Dist func(a, b float64) float64

// AbsDist is the default pointwise distance |a-b| used by the paper
// (Euclidean distance in one dimension).
func AbsDist(a, b float64) float64 { return math.Abs(a - b) }

// Align computes the classic DTW alignment between sequences a and b with
// pointwise distance d. Returns a zero-value Result when either input is
// empty.
func Align(a, b []float64, d Dist) Result {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return Result{}
	}
	if d == nil {
		d = AbsDist
	}
	cm := newMatrix(m, n)
	defer cm.release()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c := d(a[i], b[j])
			switch {
			case i == 0 && j == 0:
				cm.set(i, j, c)
			case i == 0:
				cm.set(i, j, c+cm.at(i, j-1))
			case j == 0:
				cm.set(i, j, c+cm.at(i-1, j))
			default:
				cm.set(i, j, c+min3(cm.at(i-1, j), cm.at(i, j-1), cm.at(i-1, j-1)))
			}
		}
	}
	return Result{
		Distance: cm.at(m-1, n-1),
		Path:     traceback(cm, m-1, n-1),
	}
}

// costMatrix is a dense row-major m×n DTW cost matrix backed by one flat
// slice. Matrices are pooled and reused across alignments, so repeated
// baseline runs allocate nothing per call beyond the returned Path.
type costMatrix struct {
	n     int
	cells []float64
}

var matrixPool sync.Pool

// matrixGets and matrixPuts count matrix acquisitions and releases so the
// tests can prove no Align return path leaks a pooled matrix (gets ==
// puts once every alignment has returned).
var matrixGets, matrixPuts atomic.Int64

// newMatrix sizes a pooled matrix for an m×n alignment. Every cell is
// written by the recurrence before it is read, so cells are not cleared.
func newMatrix(m, n int) *costMatrix {
	matrixGets.Add(1)
	cm, _ := matrixPool.Get().(*costMatrix)
	if cm == nil {
		cm = &costMatrix{}
	}
	if cap(cm.cells) < m*n {
		cm.cells = make([]float64, m*n)
	}
	cm.n, cm.cells = n, cm.cells[:m*n]
	return cm
}

func (cm *costMatrix) release() {
	matrixPuts.Add(1)
	matrixPool.Put(cm)
}

func (cm *costMatrix) at(i, j int) float64     { return cm.cells[i*cm.n+j] }
func (cm *costMatrix) set(i, j int, v float64) { cm.cells[i*cm.n+j] = v }

// traceback reconstructs the optimal path for a standard DTW cost matrix.
func traceback(cm *costMatrix, i, j int) Path {
	rev := make(Path, 0, i+j+1)
	for {
		rev = append(rev, Step{I: i, J: j})
		if i == 0 && j == 0 {
			break
		}
		switch {
		case i == 0:
			j--
		case j == 0:
			i--
		default:
			// Choose the predecessor with minimal cost.
			diag, up, left := cm.at(i-1, j-1), cm.at(i-1, j), cm.at(i, j-1)
			if diag <= up && diag <= left {
				i--
				j--
			} else if up <= left {
				i--
			} else {
				j--
			}
		}
	}
	reverse(rev)
	return rev
}

func reverse(p Path) {
	for l, r := 0, len(p)-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

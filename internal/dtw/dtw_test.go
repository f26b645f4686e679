package dtw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAlignIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	r := Align(a, a, nil)
	if r.Distance != 0 {
		t.Errorf("self-distance = %v, want 0", r.Distance)
	}
	// Path should be the diagonal.
	if len(r.Path) != len(a) {
		t.Fatalf("path len = %d, want %d", len(r.Path), len(a))
	}
	for k, s := range r.Path {
		if s.I != k || s.J != k {
			t.Errorf("path[%d] = %+v, want diagonal", k, s)
		}
	}
}

func TestAlignEmpty(t *testing.T) {
	r := Align(nil, []float64{1}, nil)
	if r.Distance != 0 || r.Path != nil {
		t.Errorf("empty align = %+v", r)
	}
}

func TestAlignKnownSmall(t *testing.T) {
	// Classic example: warping absorbs a time shift.
	a := []float64{0, 0, 1, 2, 1, 0}
	b := []float64{0, 1, 2, 1, 0, 0}
	r := Align(a, b, nil)
	if r.Distance != 0 {
		t.Errorf("shifted distance = %v, want 0", r.Distance)
	}
}

func TestAlignStretched(t *testing.T) {
	// A stretched copy should have zero DTW distance.
	a := []float64{1, 2, 3}
	b := []float64{1, 1, 2, 2, 2, 3, 3}
	r := Align(a, b, nil)
	if r.Distance != 0 {
		t.Errorf("stretched distance = %v, want 0", r.Distance)
	}
}

func TestPathMonotonicityAndContinuity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := make([]float64, 30)
	b := make([]float64, 45)
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range b {
		b[i] = rng.Float64()
	}
	r := Align(a, b, nil)
	checkPath(t, r.Path, len(a), len(b))
}

func checkPath(t *testing.T, p Path, m, n int) {
	t.Helper()
	if len(p) == 0 {
		t.Fatal("empty path")
	}
	if p[0].I != 0 {
		t.Errorf("path start I = %d", p[0].I)
	}
	last := p[len(p)-1]
	if last.I != m-1 || last.J != n-1 {
		t.Errorf("path end = %+v, want (%d,%d)", last, m-1, n-1)
	}
	for k := 1; k < len(p); k++ {
		di := p[k].I - p[k-1].I
		dj := p[k].J - p[k-1].J
		if di < 0 || dj < 0 || di > 1 || dj > 1 || (di == 0 && dj == 0) {
			t.Fatalf("illegal step %+v -> %+v", p[k-1], p[k])
		}
	}
}

func TestCustomDist(t *testing.T) {
	sq := func(a, b float64) float64 { d := a - b; return d * d }
	a := []float64{0, 10}
	b := []float64{0, 10}
	r := Align(a, b, sq)
	if r.Distance != 0 {
		t.Errorf("distance = %v", r.Distance)
	}
	r = Align([]float64{0}, []float64{3}, sq)
	if r.Distance != 9 {
		t.Errorf("squared distance = %v, want 9", r.Distance)
	}
}

// Property: DTW distance is symmetric.
func TestQuickSymmetry(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		if len(ra) == 0 || len(rb) == 0 || len(ra) > 40 || len(rb) > 40 {
			return true
		}
		a := make([]float64, len(ra))
		b := make([]float64, len(rb))
		for i, v := range ra {
			a[i] = float64(v)
		}
		for i, v := range rb {
			b[i] = float64(v)
		}
		return approx(Align(a, b, nil).Distance, Align(b, a, nil).Distance, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: self-distance is zero and distance is non-negative.
func TestQuickSelfZeroNonNegative(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		if len(ra) == 0 || len(ra) > 40 || len(rb) == 0 || len(rb) > 40 {
			return true
		}
		a := make([]float64, len(ra))
		for i, v := range ra {
			a[i] = float64(v)
		}
		b := make([]float64, len(rb))
		for i, v := range rb {
			b[i] = float64(v)
		}
		if Align(a, a, nil).Distance != 0 {
			return false
		}
		return Align(a, b, nil).Distance >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMatrixPoolBalanced: every Align return path must release its pooled
// matrix — including unequal lengths and degenerate inputs. Leaks would
// show as gets outrunning puts.
func TestMatrixPoolBalanced(t *testing.T) {
	gets0, puts0 := matrixGets.Load(), matrixPuts.Load()
	a := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	b := []float64{7, 6, 5, 4, 3, 2, 1, 0}
	Align(a, b, nil)
	Align(a[:3], b, nil)
	Align(a, b[:2], nil)
	Align(a[:3], nil, nil) // degenerate: no matrix at all
	Align(nil, b, nil)
	gets, puts := matrixGets.Load()-gets0, matrixPuts.Load()-puts0
	if gets != puts {
		t.Errorf("matrix pool unbalanced: %d gets, %d puts — an Align path leaked its matrix", gets, puts)
	}
	if gets == 0 {
		t.Error("no matrix acquisitions counted — instrumentation broken")
	}
}

// TestAlignAllocs: the sample-level alignment must run on the pooled flat
// matrix — a handful of allocations for the returned path, not one slice
// per matrix row.
func TestAlignAllocs(t *testing.T) {
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = math.Sin(float64(i) / 7)
		b[i] = math.Sin(float64(i)/7 + 0.3)
	}
	Align(a, b, nil) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		Align(a, b, nil)
	})
	// A [][]float64 matrix would allocate one row slice per sample (400+)
	// plus the spine; the flat pooled matrix leaves only the traceback path
	// and pool bookkeeping.
	if allocs > 40 {
		t.Errorf("Align allocs/op = %v, want the pooled flat matrix (<= 40)", allocs)
	}
}

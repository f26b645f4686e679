package stpp

import (
	"fmt"
	"slices"

	"repro/internal/profile"
)

// OMetric is the paper's O(P,Q) comparator (Section 3.2.1) over the
// k-segment mean representations of two V-zone profiles:
//
//	O(P,Q) = Σ_i (sP,i − sQ,i) / sP,i
//
// Under this package's sign convention (phase grows with distance within a
// wrap), a value near k means P's means dominate — P is farther from the
// reader trajectory than Q; a value near 0 (or below) means the opposite.
func OMetric(sp, sq []float64) (float64, error) {
	if len(sp) != len(sq) {
		return 0, fmt.Errorf("stpp: O metric over %d vs %d segments", len(sp), len(sq))
	}
	var o float64
	for i := range sp {
		if sp[i] == 0 {
			continue // a zero mean phase cannot be normalized against
		}
		o += (sp[i] - sq[i]) / sp[i]
	}
	return o, nil
}

// GMetric is the paper's G(P,Q) gap measure:
//
//	G(P,Q) = Σ_i ‖sP,i − sQ,i‖
//
// It grows with the physical Y spacing of the two tags and is used with a
// pivot to order M tags in M−1 comparisons (Section 3.2.2).
func GMetric(sp, sq []float64) (float64, error) {
	if len(sp) != len(sq) {
		return 0, fmt.Errorf("stpp: G metric over %d vs %d segments", len(sp), len(sq))
	}
	var g float64
	for i := range sp {
		d := sp[i] - sq[i]
		if d < 0 {
			d = -d
		}
		g += d
	}
	return g, nil
}

// YKey is a tag's Y-axis ordering key: its signed gap from the pivot tag.
// Positive means farther than the pivot (per the package sign convention).
type YKey struct {
	// O and G are the raw metric values against the pivot.
	O, G float64
	// Signed is −G when the tag is nearer than the pivot, +G when farther;
	// the pivot itself has Signed = 0.
	Signed float64
}

// yKeys computes each tag's V-zone segment means and its YKey against
// the pivot tag, the first tag with usable means. Profiles whose V-zone
// is unusable yield an error at that index in errs; their key is the zero
// value and they sort adjacent to the pivot. states, aligned with
// profiles, supply each tag's cached unwrap/median curves to the valley
// windowing — the streaming engine assembles every snapshot, and the
// cached curves keep the Y stage O(new reads) per tag. A nil slice or nil
// entry windows over a pooled one-shot state instead, as Detect does, so
// both run the same code and give the same bits.
//
// The scratch supplies the returned keys/errs slices, the per-tag means
// (one flat backing array instead of one slice per tag) and the valley
// window each tag's means are read from — the returned slices alias the
// scratch and are only valid until its next use.
func (l *Localizer) yKeys(sc *asmScratch, states []*DetectState, profiles []*profile.Profile, vzones []VZone) ([]YKey, []error) {
	c := l.cfg
	n := len(profiles)
	if cap(sc.keys) < n {
		sc.keys, sc.errs, sc.means = make([]YKey, n), make([]error, n), make([][]float64, n)
	}
	keys, errs, means := sc.keys[:n], sc.errs[:n], sc.means[:n]
	for i := range keys {
		keys[i], errs[i], means[i] = YKey{}, nil, nil
	}
	if n == 0 {
		return keys, errs
	}
	// Reserve the whole flat backing up front: each success appends
	// exactly YSegments values, so the per-tag subslices stay valid.
	if cap(sc.flat) < n*c.YSegments {
		sc.flat = make([]float64, 0, n*c.YSegments)
	}
	flat := sc.flat[:0]
	for i, p := range profiles {
		vz := vzones[i]
		if vz.End-vz.Start < c.YSegments {
			errs[i] = errShortVZone{tag: i, samples: vz.End - vz.Start, segments: c.YSegments}
			continue
		}
		// Segment means over a fixed-depth valley window so windows are
		// comparable across tags and a nadir that wraps through 0 does not
		// corrupt the averages.
		var st *DetectState
		if states != nil {
			st = states[i]
		}
		oneShot := st == nil
		if oneShot {
			st = l.det.oneShotState()
		}
		_, phases := st.ValleyWindow(sc.vw, p, vz, c.YRiseWindow)
		sc.vw = phases
		grown, err := segmentMeansAppend(flat, phases, c.YSegments)
		if oneShot {
			l.det.putOneShot(st)
		}
		if err != nil {
			errs[i] = err
			continue
		}
		means[i] = grown[len(flat):]
		flat = grown
	}
	pivot := 0
	for pivot < n && means[pivot] == nil {
		pivot++
	}
	if pivot == n {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = fmt.Errorf("stpp: no usable pivot")
			}
		}
		return keys, errs
	}
	sp := means[pivot]
	for i := range profiles {
		if means[i] == nil || i == pivot {
			continue
		}
		// Note the argument order: O(pivot, Q) > 0 means pivot farther.
		o, err := OMetric(sp, means[i])
		if err != nil {
			errs[i] = err
			continue
		}
		g, err := GMetric(sp, means[i])
		if err != nil {
			errs[i] = err
			continue
		}
		k := YKey{O: o, G: g}
		if o > 0 {
			k.Signed = -g // pivot farther → this tag nearer
		} else {
			k.Signed = g
		}
		keys[i] = k
	}
	return keys, errs
}

// errShortVZone and errShortWindow report a tag whose V-zone (or valley
// window) is still too short to split into Y segments. They are typed
// with deferred formatting because the incremental Y stage re-keys every
// dirty tag on every snapshot: an immature tag hits one of these each
// time, and a fmt.Errorf there was a per-snapshot-linear allocation term.
type errShortVZone struct{ tag, samples, segments int }

func (e errShortVZone) Error() string {
	return fmt.Sprintf("stpp: V-zone of tag %d has %d samples < %d segments", e.tag, e.samples, e.segments)
}

type errShortWindow struct{ values, segments int }

func (e errShortWindow) Error() string {
	return fmt.Sprintf("stpp: %d values < %d segments", e.values, e.segments)
}

// segmentMeansAppend splits values into k equal-count chunks and appends
// each chunk's mean to dst, growing it by exactly k on success (the
// V-zone coarse representation of Section 3.2.1).
func segmentMeansAppend(dst, values []float64, k int) ([]float64, error) {
	n := len(values)
	if n < k {
		return nil, errShortWindow{values: n, segments: k}
	}
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		var sum float64
		for i := lo; i < hi; i++ {
			sum += values[i]
		}
		dst = append(dst, sum/float64(hi-lo))
	}
	return dst, nil
}

// OrderByY sorts tag indices by ascending signed gap — nearest to the
// reader trajectory first.
func OrderByY(keys []YKey) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		// Mirrors `<` exactly (a NaN gap compares equal to everything, so
		// stability keeps input order) — cmp.Compare would sort NaN first.
		switch sa, sb := keys[a].Signed, keys[b].Signed; {
		case sa < sb:
			return -1
		case sb < sa:
			return 1
		default:
			return 0
		}
	})
	return idx
}

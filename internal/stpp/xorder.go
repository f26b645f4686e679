package stpp

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dsp"
	"repro/internal/profile"
)

// XKey is the X-axis ordering key of one tag: the time its V-zone bottom
// occurs, recovered by quadratic fitting (Section 3.1.2, Figure 9).
type XKey struct {
	// BottomTime is the fitted time of the V-zone minimum, in seconds.
	BottomTime float64
	// BottomPhase is the fitted phase at the minimum, radians.
	BottomPhase float64
	// Fit is the quadratic fitted to the (unwrapped) V-zone samples.
	Fit dsp.Quadratic
	// R2 is the goodness of the fit.
	R2 float64
	// Sigma is the bottom-time uncertainty in seconds, derived from the
	// fit's residual spread mapped through the parabola's curvature: a
	// phase residual of s radians moves the apparent minimum by about
	// sqrt(s/A) seconds. Keys that fell back to the raw minimum (degenerate
	// or out-of-window fits) carry half the V-zone span — the honest "could
	// be anywhere in the valley" bound. Sigma depends only on the valley's
	// shape, so it is invariant under Shifted and comparable across
	// readers; PairConfidence turns two adjacent keys' Sigmas into a
	// trust score for their relative order.
	Sigma float64
}

// XKeyOf fits a quadratic to the V-zone of a profile and extracts the
// bottom time. The V-zone samples are median-filtered and gap-aware
// unwrapped first: the nadir of a noisy profile may wrap through 0, which
// would otherwise destroy the parabola.
func (c Config) XKeyOf(p *profile.Profile, vz VZone) (XKey, error) {
	return c.xKeyOf(nil, nil, p, vz)
}

// xKeyOf is XKeyOf memoized on a tag's detection state, with the
// V-zone-length temporaries drawn from a borrowed call scratch (nil for
// either degrades to no memo and fresh allocations): the incremental
// per-tag stage re-keys every dirty tag on every snapshot, and these three
// buffers were a per-snapshot-linear allocation term.
func (c Config) xKeyOf(st *DetectState, sc *callScratch, p *profile.Profile, vz VZone) (XKey, error) {
	// Memo: the key is a pure function of the samples inside [Start, End),
	// which cannot have changed since the last call — the profile grows
	// append-only while the state is valid (Reset clears the memo on
	// re-sorts). vz.Cost is irrelevant to the fit, so only the bounds gate.
	if st != nil && st.xkValid && st.xkVZ.Start == vz.Start && st.xkVZ.End == vz.End {
		return st.xkKey, st.xkErr
	}
	k, err := c.xKeyFit(sc, p, vz)
	if st != nil {
		st.xkVZ, st.xkKey, st.xkErr, st.xkValid = vz, k, err, true
	}
	return k, err
}

// xKeyFit is the uncached fit behind xKeyOf.
func (c Config) xKeyFit(sc *callScratch, p *profile.Profile, vz VZone) (XKey, error) {
	n := vz.End - vz.Start
	if n < 3 {
		return XKey{}, fmt.Errorf("stpp: V-zone has %d samples, need >= 3", n)
	}
	// Work on the continuous valley: circular-unwrapped phases anchored at
	// the wrapped bottom (handles the nadir wrapping through 0), with a
	// median prefilter against multipath outliers.
	var unDst, cleanDst, predDst []float64
	if sc != nil {
		unDst, cleanDst, predDst = sc.un, sc.clean, sc.pred
	}
	times, un := anchoredPhasesTo(unDst, p, vz)
	clean := dsp.MedianFilterRangeTo(cleanDst, un, c.MedianWidth, 0)
	if cap(predDst) < len(times) {
		c := 2 * cap(predDst)
		if c < len(times) {
			c = len(times)
		}
		predDst = make([]float64, len(times), c)
	}
	if sc != nil {
		sc.un, sc.clean, sc.pred = un, clean, predDst
	}

	q, err := dsp.FitQuadratic(times, clean)
	if err != nil {
		return XKey{}, fmt.Errorf("stpp: quadratic fit: %w", err)
	}
	pred := predDst[:len(times)]
	for i, t := range times {
		pred[i] = q.Eval(t)
	}
	r2 := dsp.RSquared(clean, pred)

	lo, hi := times[0], times[len(times)-1]
	span := hi - lo
	k := XKey{Fit: q, R2: r2, Sigma: span / 2}
	if q.OpensUpward() {
		k.BottomTime = q.VertexX()
		k.BottomPhase = q.VertexY()
		// A vertex far outside the observed window means the fit latched
		// onto a monotone flank; fall back to the raw minimum.
		if k.BottomTime < lo-span || k.BottomTime > hi+span {
			k.BottomTime, k.BottomPhase = rawMin(times, clean)
		} else {
			// Bottom-time uncertainty from the fit: the residual phase
			// spread s (radians) around the parabola maps to a time offset
			// of sqrt(s/A) at the vertex, where A is the curvature. A sharp
			// valley (large A) pins its bottom tightly even under noise; a
			// shallow one lets the minimum wander.
			var ss float64
			for i := range clean {
				d := clean[i] - pred[i]
				ss += d * d
			}
			s := math.Sqrt(ss / float64(len(clean)))
			if sig := math.Sqrt(s / q.A); sig > 0 && !math.IsNaN(sig) && !math.IsInf(sig, 0) {
				k.Sigma = sig
			}
		}
	} else {
		// Degenerate or downward fit: fall back to the raw minimum.
		k.BottomTime, k.BottomPhase = rawMin(times, clean)
	}
	return k, nil
}

// PairConfidence scores how trustworthy the relative X order of two
// adjacent keys is: the bottom-time separation weighed against both keys'
// uncertainties, sep/(sep+σa+σb). 1 means the gap dwarfs the noise; 0
// means the bottoms coincide or a key is unusable (NaN time, or a
// non-finite/non-positive Sigma pair with zero separation). The score is
// symmetric and shift-invariant, so it holds after re-basing keys onto a
// global clock.
func PairConfidence(a, b XKey) float64 {
	if math.IsNaN(a.BottomTime) || math.IsNaN(b.BottomTime) {
		return 0
	}
	sep := math.Abs(a.BottomTime - b.BottomTime)
	sa, sb := a.Sigma, b.Sigma
	if math.IsNaN(sa) || math.IsInf(sa, 0) || sa < 0 {
		sa = 0
	}
	if math.IsNaN(sb) || math.IsInf(sb, 0) || sb < 0 {
		sb = 0
	}
	den := sep + sa + sb
	if den <= 0 || math.IsInf(sep, 0) {
		return 0
	}
	return sep / den
}

// Shifted re-bases the key onto a clock whose origin is dt seconds before
// this key's clock: BottomTime moves to BottomTime+dt and the fitted
// parabola is translated to match (q'(t) = q(t−dt)), leaving the shape and
// R² untouched. A sharded deployment uses it to express per-reader keys —
// each recorded on the reader's local clock — on the deployment's global
// clock, where they become mergeable. Shifted(0) is the identity.
func (k XKey) Shifted(dt float64) XKey {
	if dt == 0 {
		return k
	}
	k.BottomTime += dt
	q := k.Fit
	k.Fit = dsp.Quadratic{
		A: q.A,
		B: q.B - 2*q.A*dt,
		C: (q.A*dt-q.B)*dt + q.C,
	}
	return k
}

func rawMin(times, phases []float64) (float64, float64) {
	i := dsp.ArgMin(phases)
	return times[i], phases[i]
}

// OrderByX sorts tag indices by ascending V-zone bottom time — the order
// the reader passed the tags along the movement axis. NaN bottom times
// sort last.
func OrderByX(keys []XKey) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ta, tb := keys[a].BottomTime, keys[b].BottomTime
		switch {
		case math.IsNaN(ta):
			if math.IsNaN(tb) {
				return 0
			}
			return 1
		case math.IsNaN(tb):
			return -1
		default:
			return cmp.Compare(ta, tb)
		}
	})
	return idx
}

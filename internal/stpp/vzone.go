package stpp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dsp"
	"repro/internal/dtw"
	"repro/internal/profile"
)

// VZone is a detected V-zone within a measured profile.
type VZone struct {
	// Start and End are the sample index range [Start, End) within the
	// measured profile.
	Start, End int
	// Cost is the DTW matching cost (lower is a better match).
	Cost float64
}

// Detector locates V-zones by matching a reference profile against
// measured profiles with segment-level DTW.
type Detector struct {
	cfg Config
	// reference profile and its a-priori V-zone bounds
	ref          *profile.Profile
	refVS, refVE int
	refSegs      []dtw.Segment
	// refAl is the shared flat-panel form of refSegs, with the reference
	// V-zone's segments as its span rows: every DetectState's aligner
	// references it instead of owning a private copy of the panels.
	refAl *dtw.Reference
	// oneShot pools the DetectStates of the one-shot Detect and
	// Localizer.LocalizeTag, so batch detection reuses their segment
	// cache, aligner and curve buffers instead of allocating them per tag.
	oneShot sync.Pool
}

// NewDetector synthesizes the reference profile and prepares its coarse
// representation.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ref, vs, ve, err := profile.Reference(cfg.Reference)
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, ref: ref, refVS: vs, refVE: ve}
	d.refSegs = ref.Segmentize(cfg.Window)
	// Locate the segments covered by the reference V-zone: the span rows
	// whose matched query columns every alignment reports.
	segVS, segVE := -1, -1
	for i, s := range d.refSegs {
		if s.End > vs && segVS < 0 {
			segVS = i
		}
		if s.Start < ve {
			segVE = i + 1
		}
	}
	if segVS < 0 || segVE <= segVS {
		return nil, fmt.Errorf("stpp: reference segmentation lost the V-zone")
	}
	d.refAl = dtw.NewReference(d.refSegs, dtw.SegmentAlignOpts{Stiffness: cfg.DTWStiffness}, segVS, segVE)
	return d, nil
}

// Reference exposes the synthesized reference profile and its V-zone
// bounds, mainly for diagnostics and the figure-7 experiment.
func (d *Detector) Reference() (*profile.Profile, int, int) {
	return d.ref, d.refVS, d.refVE
}

// Detect finds the V-zone in a measured profile. It aligns the segmented
// reference against the segmented measurement with open-ended coarse DTW
// (Section 3.1.2) — the measured profile may extend well beyond the
// reference's period count, so the reference is located as a subsequence —
// and maps the reference's a-priori V-zone bounds through the warping
// path. It is a one-shot DetectIncremental over a pooled, reset state, so
// batch and incremental detection share every line of code, the borrowed
// call scratch included.
func (d *Detector) Detect(p *profile.Profile) (VZone, error) {
	st := d.oneShotState()
	defer d.putOneShot(st)
	return d.DetectIncremental(st, p)
}

// oneShotState takes a pooled DetectState for a one-shot detection; the
// caller returns it with putOneShot.
func (d *Detector) oneShotState() *DetectState {
	if st, ok := d.oneShot.Get().(*DetectState); ok {
		return st
	}
	return d.NewDetectState()
}

// putOneShot clears a one-shot state back to a fresh state's behaviour —
// Reset drops the segment cache, Release returns the DTW decision array
// to the shared free-list — and pools it for the next one-shot detection.
func (d *Detector) putOneShot(st *DetectState) {
	st.Reset()
	st.Release()
	d.oneShot.Put(st)
}

// callScratch is the working memory of one per-tag detection: the
// segment-DTW fill's scratch and the X-key fit's three V-zone-length
// buffers. No later call reads it, so it is borrowed for one
// DetectIncremental or LocalizeTagIncremental, not held by every tag.
type callScratch struct {
	fill            dtw.Scratch
	un, clean, pred []float64
}

// scratchFree recycles call scratches; a sync.Pool would drop them at
// every collection (and at random under the race detector) and regrow
// their buffers from empty. A scratch is made only when the list is
// empty, so the list and the borrowed scratches never outnumber the most
// detections ever in progress at once.
var (
	scratchMu   sync.Mutex
	scratchFree []*callScratch
)

// getScratch borrows a call scratch; putScratch returns it.
func getScratch() *callScratch {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if k := len(scratchFree); k > 0 {
		sc := scratchFree[k-1]
		scratchFree[k-1] = nil
		scratchFree = scratchFree[:k-1]
		return sc
	}
	return new(callScratch)
}

func putScratch(sc *callScratch) {
	scratchMu.Lock()
	scratchFree = append(scratchFree, sc)
	scratchMu.Unlock()
}

// DetectState is the resumable per-tag state behind DetectIncremental,
// and only that — everything the next call resumes from: the tag's
// segment cache, the open-end DTW aligner holding the packed traceback
// decisions of the DP columns computed so far, the V-zone refinement's
// unwrap/median curves with the prefix length they are valid for, and the
// X-key memo. The working memory of one call — the DTW fill's cost column
// and byte decisions, the X-key fit's buffers — is borrowed per call
// (getScratch), and the Y stage's valley window lives in the assembly
// scratch, so a resident tag between snapshots holds none of it. A state
// belongs to one (detector, tag) pair and is not safe for concurrent use.
type DetectState struct {
	segs *profile.SegmentCache
	al   *dtw.SegmentAligner
	// u and um cache refineVZone's circular unwrap and its median-filtered
	// form over the profile's first uLen samples. The unwrap is a cumulative
	// sum and the median windows are local, so on append-only growth both
	// resume from uLen instead of recomputing from sample 0.
	u, um []float64
	uLen  int
	// X-key memo: the quadratic fit depends only on the profile samples
	// inside the V-zone, and within a state's validity window the profile
	// grows append-only — so when detection lands on the same [Start, End)
	// again, the previous key (or its deterministic error) is exact. The
	// fit is the snapshot path's single heaviest per-tag stage after the
	// DTW fill, and on a stabilized tag the V-zone stops moving while
	// reads keep appending behind it.
	xkVZ    VZone
	xkKey   XKey
	xkErr   error
	xkValid bool
}

// NewDetectState allocates the incremental detection state for one tag.
func (d *Detector) NewDetectState() *DetectState {
	return &DetectState{
		segs: profile.NewSegmentCache(d.cfg.Window),
		al:   dtw.NewSharedAligner(d.refAl),
	}
}

// Reset invalidates the state after the tag's profile changed other than
// by appending (an out-of-order read forced a re-sort): the segment cache
// rebuilds from sample 0 and reports the first segment the rebuild
// changed, the aligner recomputes from that segment (or from column 0
// when it is not one of the last two), and the refinement curves
// recompute in full on the next DetectIncremental.
func (s *DetectState) Reset() {
	s.segs.Invalidate()
	s.uLen = 0
	s.xkValid = false
}

// Release returns the state's pooled holdings (the DTW decision array) to
// their free-lists when the tag's session is over. The state remains usable;
// subsequent detections recompute from scratch.
func (s *DetectState) Release() {
	s.al.Release()
	s.uLen = 0
	s.xkValid = false
}

// unwrapMedian returns the median-filtered circular unwrap of the profile,
// resuming the cached curves from the last call's length: the unwrap
// continues the cumulative sum from u[uLen−1], and the median filter
// recomputes only the indices whose window reaches into the new samples.
// Bit-identical to a from-scratch computation because the resumed
// arithmetic runs the same operations in the same order over an unchanged
// prefix.
func (s *DetectState) unwrapMedian(p *profile.Profile) []float64 {
	n := p.Len()
	n0 := s.uLen
	if n0 > n {
		n0 = 0 // shrunk without Reset; recompute rather than misrefine
	}
	if n0 == n && n > 0 {
		return s.um[:n]
	}
	if cap(s.u) < n {
		c := 2 * cap(s.u)
		if c < n {
			c = n
		}
		grown := make([]float64, n, c)
		copy(grown, s.u[:n0])
		s.u = grown
	}
	u := s.u[:n]
	phases := p.Phases
	i := n0
	if i == 0 {
		u[0] = phases[0]
		i = 1
	}
	for ; i < n; i++ {
		d := phases[i] - phases[i-1]
		if d > math.Pi {
			d -= 2 * math.Pi
		} else if d <= -math.Pi {
			d += 2 * math.Pi
		}
		u[i] = u[i-1] + d
	}
	s.u = u
	s.um = dsp.MedianFilterRangeTo(s.um[:n0], u, medianWidth, n0-medianWidth/2)
	s.uLen = n
	return s.um
}

// DetectIncremental is Detect resuming from a previous call's state: the
// profile is re-segmented only from the last window boundary, the segment
// DTW extends its held DP columns, and the V-zone refinement resumes its
// unwrap/median curves from the previous profile length, so a detection
// after k new reads costs O(refSegs·k/w + k) instead of
// O(refSegs·len(p)/w² + len(p)). The result is byte-identical to Detect
// over the same profile — the segment cache reproduces Segmentize exactly
// on append-only growth, and Detect is itself a one-shot run of this
// code. The profile must extend the one from the previous call by appends
// only, unless Reset was called in between.
func (d *Detector) DetectIncremental(st *DetectState, p *profile.Profile) (VZone, error) {
	sc := getScratch()
	defer putScratch(sc)
	return d.detect(st, sc, p)
}

// detect is DetectIncremental working in a borrowed call scratch.
func (d *Detector) detect(st *DetectState, sc *callScratch, p *profile.Profile) (VZone, error) {
	if p.Len() < d.cfg.MinVZoneSamples {
		return VZone{}, fmt.Errorf("stpp: profile has %d samples, need >= %d",
			p.Len(), d.cfg.MinVZoneSamples)
	}
	segs, changed := st.segs.Segments(p)
	if len(segs) == 0 {
		return VZone{}, fmt.Errorf("stpp: empty segmentation")
	}
	// The aligner keeps its DP columns before the first segment the cache
	// changed, and reports the measured segments the reference V-zone
	// segments (its span rows) map to through the warping path: the first
	// and the last the path pairs with them.
	mt := st.al.Align(segs, changed, &sc.fill)
	start := segs[mt.SpanStart].Start
	end := segs[mt.SpanEnd].End

	// Refine: the coarse match localizes the V-zone but its boundaries
	// inherit the reference's geometry (perpendicular distance), which
	// differs per tag. Snap to this tag's own V-zone: circular-unwrap the
	// profile, take the unwrapped minimum near the candidate, and expand
	// until the phase has risen one full period on each side — the wrap
	// positions that define the V-zone (Section 2.2). The circular unwrap
	// is immune to representation wraps; only genuinely fast phase motion
	// between consecutive reads (>π) aliases, and that happens far from
	// the V-zone where it cannot move the local minimum. The median filter
	// keeps noise outliers from faking a bottom or tripping the rise
	// thresholds.
	start, end = refineVZone(st.unwrapMedian(p), start, end)
	if end-start < d.cfg.MinVZoneSamples {
		return VZone{}, fmt.Errorf("stpp: detected V-zone too sparse (%d samples)", end-start)
	}
	return VZone{Start: start, End: end, Cost: mt.Distance}, nil
}

// medianWidth is the median-filter window of the V-zone refinement and
// valley re-windowing; DetectState's incremental cache depends on it to
// know how far a profile append can perturb the filtered curve.
const medianWidth = 5

// refineVZone snaps a candidate V-zone region to the enclosing
// single-period valley of the profile's median-filtered circular unwrap
// um.
func refineVZone(um []float64, candStart, candEnd int) (int, int) {
	n := len(um)

	// Search the candidate region (with half-width margin) for the minimum.
	margin := (candEnd - candStart) / 2
	lo := candStart - margin
	if lo < 0 {
		lo = 0
	}
	hi := candEnd + margin
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return candStart, candEnd
	}
	bottom := lo
	for i := lo + 1; i < hi; i++ {
		if um[i] < um[bottom] {
			bottom = i
		}
	}

	// Expand to the wrap positions: the wrapped representation jumps where
	// the phase climbs back to 2π, i.e. after a rise of 2π − φ_bottom on
	// each side. When the nadir sits within noise of the 0/2π boundary the
	// strict V-zone degenerates to a sliver (the paper's "nadir may wrap
	// around" hazard); in that case take one more period so the quadratic
	// fit has a usable valley — downstream consumers work on the anchored
	// unwrapped values, so the extra period stays continuous.
	// u[i] ≡ Phases[i] (mod 2π) by construction, so the filtered unwrapped
	// bottom folds back to a denoised wrapped bottom phase.
	w0 := math.Mod(um[bottom], 2*math.Pi)
	if w0 < 0 {
		w0 += 2 * math.Pi
	}
	rise := 2*math.Pi - w0 - 0.15
	if rise < 0.8 {
		rise += 2 * math.Pi
	}
	start := bottom
	for start > 0 && um[start-1]-um[bottom] < rise {
		start--
	}
	end := bottom + 1
	for end < n && um[end]-um[bottom] < rise {
		end++
	}
	return start, end
}

// AnchoredPhases returns the V-zone's times and its circular-unwrapped
// phases re-anchored so the minimum equals the wrapped bottom reading.
// For a clean single-period V-zone this reproduces the wrapped values
// exactly; when the nadir wraps through 0 it yields the continuous valley
// the quadratic fit and the Y-axis segment means need.
func AnchoredPhases(p *profile.Profile, vz VZone) (times, phases []float64) {
	return anchoredPhasesTo(nil, p, vz)
}

// anchoredPhasesTo is AnchoredPhases writing the unwrapped phases into dst
// when its capacity suffices — the scratch-threaded form the incremental
// per-tag stage uses to keep snapshots allocation-free.
func anchoredPhasesTo(dst []float64, p *profile.Profile, vz VZone) (times, phases []float64) {
	n := vz.End - vz.Start
	if n <= 0 {
		return nil, nil
	}
	times = p.Times[vz.Start:vz.End]
	raw := p.Phases[vz.Start:vz.End]
	if cap(dst) < n {
		// Geometric growth: the scratch-threaded callers re-run this on a
		// growing V-zone every snapshot, and exact-size regrowth would cost
		// one allocation per snapshot instead of O(log growth).
		c := 2 * cap(dst)
		if c < n {
			c = n
		}
		dst = make([]float64, n, c)
	}
	u := dst[:n]
	u[0] = raw[0]
	minIdx := 0
	for i := 1; i < n; i++ {
		d := raw[i] - raw[i-1]
		if d > math.Pi {
			d -= 2 * math.Pi
		} else if d <= -math.Pi {
			d += 2 * math.Pi
		}
		u[i] = u[i-1] + d
		if u[i] < u[minIdx] {
			minIdx = i
		}
	}
	anchor := raw[minIdx] - u[minIdx]
	for i := range u {
		u[i] += anchor
	}
	return times, u
}

// ValleyWindow returns the V-zone valley re-windowed to a fixed phase
// rise: starting from the valley bottom, it expands left and right until
// the circular-unwrapped phase has climbed `rise` radians (or the profile
// ends). Y-axis comparison needs windows of equal phase depth — the raw
// detected V-zones span 2π−φ0, which differs per tag — so all tags are
// measured over the same depth here. The returned phases are anchored like
// AnchoredPhases.
//
// The window reads the state's unwrap/median curves, resumed by
// unwrapMedian under the usual append-only/Reset contract: the streaming
// engine's Y stage runs it once per tag on every snapshot, so the curves
// must cost O(new reads), not O(profile). The phases are written into dst
// when its capacity suffices, else into a fresh array with doubling
// headroom, so a caller threading the result back in as the next dst
// allocates O(log growth) times.
func (s *DetectState) ValleyWindow(dst []float64, p *profile.Profile, vz VZone, rise float64) (times, phases []float64) {
	n := p.Len()
	if n == 0 || vz.End <= vz.Start {
		return nil, nil
	}
	um := s.unwrapMedian(p)
	u := s.u[:n]
	bottom := vz.Start
	for i := vz.Start; i < vz.End && i < n; i++ {
		if um[i] < um[bottom] {
			bottom = i
		}
	}
	start := bottom
	for start > 0 && um[start-1]-um[bottom] < rise {
		start--
	}
	end := bottom + 1
	for end < n && um[end]-um[bottom] < rise {
		end++
	}
	anchor := p.Phases[bottom] - u[bottom]
	if cap(dst) < end-start {
		c := 2 * cap(dst)
		if c < end-start {
			c = end - start
		}
		dst = make([]float64, end-start, c)
	}
	phases = dst[:end-start]
	for i := start; i < end; i++ {
		phases[i-start] = u[i] + anchor
	}
	return p.Times[start:end], phases
}

// DetectFull runs plain per-sample DTW instead of the segmented variant —
// the paper's unoptimized baseline, kept for the ablation benchmarks.
// It resamples the reference to the measured profile's sample count to
// bound the cost matrix, then maps the reference V-zone through the
// warping path.
func (d *Detector) DetectFull(p *profile.Profile) (VZone, error) {
	if p.Len() < d.cfg.MinVZoneSamples {
		return VZone{}, fmt.Errorf("stpp: profile has %d samples, need >= %d",
			p.Len(), d.cfg.MinVZoneSamples)
	}
	res := dtw.Align(d.ref.Phases, p.Phases, circularDist)
	if len(res.Path) == 0 {
		return VZone{}, fmt.Errorf("stpp: alignment produced no path")
	}
	first, last := -1, -1
	for _, st := range res.Path {
		if st.I >= d.refVS && st.I < d.refVE {
			if first < 0 || st.J < first {
				first = st.J
			}
			if st.J > last {
				last = st.J
			}
		}
	}
	if first < 0 {
		return VZone{}, fmt.Errorf("stpp: warping path missed the V-zone")
	}
	if last+1-first < d.cfg.MinVZoneSamples {
		return VZone{}, fmt.Errorf("stpp: detected V-zone too sparse (%d samples)", last+1-first)
	}
	return VZone{Start: first, End: last + 1, Cost: res.Distance}, nil
}

// circularDist is |a−b| on the phase circle, so wraps do not masquerade as
// huge pointwise distances in full-resolution DTW.
func circularDist(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	const twoPi = 2 * 3.14159265358979323846
	if d > twoPi/2 {
		d = twoPi - d
	}
	return d
}

package stpp

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/epcgen2"
	"repro/internal/profile"
	"repro/internal/reader"
)

// TagResult is the per-tag outcome of a localization pass.
type TagResult struct {
	// EPC identifies the tag.
	EPC epcgen2.EPC
	// Profile is the tag's phase profile.
	Profile *profile.Profile
	// VZone is the detected V-zone (valid when Err == nil).
	VZone VZone
	// X and Y are the ordering keys.
	X XKey
	Y YKey
	// Err records why the tag could not be processed, if it couldn't.
	Err error
}

// Result is the outcome of a full 2D relative localization pass.
type Result struct {
	// Tags holds per-tag details in first-appearance order.
	Tags []TagResult
	// XOrder and YOrder are indices into Tags sorted along each axis
	// (X: movement direction; Y: distance from the reader trajectory,
	// nearest first).
	XOrder []int
	// YOrder uses the package's sign convention (see package comment).
	YOrder []int
	// XConfidence scores each adjacent pair in XOrder: XConfidence[i] is
	// PairConfidence between the tags at XOrder[i] and XOrder[i+1], so its
	// length is len(XOrder)-1 (empty for fewer than two tags). Pairs
	// involving a failed tag score 0.
	XConfidence []float64
}

// XOrderEPCs returns the EPCs in X order.
func (r *Result) XOrderEPCs() []epcgen2.EPC {
	out := make([]epcgen2.EPC, len(r.XOrder))
	for i, j := range r.XOrder {
		out[i] = r.Tags[j].EPC
	}
	return out
}

// YOrderEPCs returns the EPCs in Y order.
func (r *Result) YOrderEPCs() []epcgen2.EPC {
	out := make([]epcgen2.EPC, len(r.YOrder))
	for i, j := range r.YOrder {
		out[i] = r.Tags[j].EPC
	}
	return out
}

// Localizer runs the full STPP pipeline.
type Localizer struct {
	cfg Config
	det *Detector
}

// NewLocalizer builds a localizer for the given configuration.
func NewLocalizer(cfg Config) (*Localizer, error) {
	det, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	return &Localizer{cfg: cfg, det: det}, nil
}

// Config returns the localizer's configuration.
func (l *Localizer) Config() Config { return l.cfg }

// Detector exposes the V-zone detector (for diagnostics/experiments).
func (l *Localizer) Detector() *Detector { return l.det }

// LocalizeReads groups a raw read log into profiles and localizes them.
func (l *Localizer) LocalizeReads(reads []reader.TagRead) (*Result, error) {
	ps := profile.FromReads(reads)
	if len(ps) == 0 {
		return nil, fmt.Errorf("stpp: no tag profiles in read log")
	}
	return l.Localize(ps)
}

// Localize runs V-zone detection, X ordering and Y ordering over the given
// profiles. Tags whose profiles cannot be processed are retained with Err
// set; they are ordered by whatever partial keys they have (NaN bottom
// times sort last on X, zero keys sort at the pivot on Y). It is a thin
// serial composition of LocalizeTag and Assemble — the streaming
// pipeline.Engine drives the same two stages with the per-tag stage fanned
// out over a worker pool, so both paths produce identical results.
func (l *Localizer) Localize(profiles []*profile.Profile) (*Result, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("stpp: no profiles")
	}
	tags := make([]TagResult, len(profiles))
	for i, p := range profiles {
		tags[i] = l.LocalizeTag(p)
	}
	return l.Assemble(tags), nil
}

// LocalizeTag runs the per-tag portion of the pipeline — V-zone detection
// and X-keying — over one profile. This stage carries essentially all of
// the localization cost (segmented DTW plus quadratic fitting) and touches
// no shared mutable state: the Localizer is immutable after construction,
// so LocalizeTag is safe to call concurrently for different tags.
//
// It is a one-shot LocalizeTagIncremental over a pooled, reset state, so
// the batch and streaming per-tag stages are one code path.
func (l *Localizer) LocalizeTag(p *profile.Profile) TagResult {
	st := l.det.oneShotState()
	defer l.det.putOneShot(st)
	return l.LocalizeTagIncremental(st, p)
}

// LocalizeTagIncremental is LocalizeTag resuming from per-tag state: the
// V-zone detection extends the state's segment cache and DTW columns
// instead of recomputing them from sample 0, so a snapshot pays for the
// reads that arrived since the previous one. The result is byte-identical
// to LocalizeTag over the same profile. The profile must have grown
// append-only since the state's last use (call st.Reset after a re-sort).
// Like LocalizeTag it is safe to call concurrently for different tags —
// each tag owns its state, and each call borrows its own working memory
// for the DTW fill and the X-key fit.
func (l *Localizer) LocalizeTagIncremental(st *DetectState, p *profile.Profile) TagResult {
	sc := getScratch()
	defer putScratch(sc)
	tr := TagResult{EPC: p.EPC, Profile: p}
	vz, err := l.det.detect(st, sc, p)
	if err != nil {
		tr.Err = err
		return tr
	}
	tr.VZone = vz
	xk, err := l.cfg.xKeyOf(st, sc, p, vz)
	if err != nil {
		tr.Err = err
		return tr
	}
	tr.X = xk
	return tr
}

// NewDetectState allocates the resumable per-tag detection state used by
// LocalizeTagIncremental.
func (l *Localizer) NewDetectState() *DetectState { return l.det.NewDetectState() }

// Assemble runs the global portion of the pipeline over per-tag results:
// the X order over bottom times (failed tags sort last via NaN handling)
// and the pivot-based Y keys and order. It takes ownership of tags, filling
// in each tag's Y key and recording Y-stage errors on tags that passed the
// per-tag stage. A sharded deployment assembles each shard the same way
// and then stitches the per-shard orders (internal/deploy).
func (l *Localizer) Assemble(tags []TagResult) *Result {
	return l.AssembleStates(tags, nil)
}

// AssembleStates is Assemble with per-tag detection states (aligned with
// tags; a nil slice or nil entries window over pooled one-shot states) so
// the Y stage's valley windowing can resume each tag's cached unwrap/median
// curves instead of recomputing them over the whole profile — the
// streaming engine assembles every snapshot, so this keeps the Y stage
// incremental too. Results are bit-identical to Assemble.
func (l *Localizer) AssembleStates(tags []TagResult, states []*DetectState) *Result {
	sc := asmPool.Get().(*asmScratch)
	res := &Result{Tags: tags}
	res.XOrder = l.assembleX(sc, tags)
	res.YOrder = l.assembleYScratch(sc, tags, states)
	asmPool.Put(sc)
	res.XConfidence = XConfidences(tags, res.XOrder)
	return res
}

// XConfidences scores every adjacent pair of an X order over the given
// tags: out[i] is PairConfidence between order[i] and order[i+1], 0 when
// either tag failed. The slice is freshly allocated (it is retained in
// results), with length len(order)-1, or nil for fewer than two tags.
func XConfidences(tags []TagResult, order []int) []float64 {
	if len(order) < 2 {
		return nil
	}
	out := make([]float64, len(order)-1)
	for i := range out {
		a, b := &tags[order[i]], &tags[order[i+1]]
		if a.Err != nil || b.Err != nil {
			continue
		}
		out[i] = PairConfidence(a.X, b.X)
	}
	return out
}

// asmScratch pools the assembly stage's temporaries: the tag-count-sized
// slices and the Y stage's valley window, which yKeys threads through
// every tag in turn. The streaming engine assembles on every snapshot, so
// fresh slices here made the per-snapshot allocation count scale with
// cadence. The X/Y order index slices are NOT pooled — they are retained
// in the returned Result.
type asmScratch struct {
	xkeys    []XKey
	profiles []*profile.Profile
	vzones   []VZone
	keys     []YKey
	errs     []error
	means    [][]float64
	flat     []float64
	vw       []float64
}

var asmPool = sync.Pool{New: func() any { return new(asmScratch) }}

func (l *Localizer) assembleX(sc *asmScratch, tags []TagResult) []int {
	if cap(sc.xkeys) < len(tags) {
		sc.xkeys = make([]XKey, len(tags))
	}
	xkeys := sc.xkeys[:len(tags)]
	for i := range tags {
		if tags[i].Err != nil {
			xkeys[i] = XKey{BottomTime: math.NaN()}
		} else {
			xkeys[i] = tags[i].X
		}
	}
	return OrderByX(xkeys)
}

func (l *Localizer) assembleYScratch(sc *asmScratch, tags []TagResult, states []*DetectState) []int {
	n := len(tags)
	if cap(sc.profiles) < n {
		sc.profiles, sc.vzones = make([]*profile.Profile, n), make([]VZone, n)
	}
	profiles, vzones := sc.profiles[:n], sc.vzones[:n]
	for i := range tags {
		profiles[i] = tags[i].Profile
		vzones[i] = tags[i].VZone
	}
	ykeys, errs := l.yKeys(sc, states, profiles, vzones)
	for i := range tags {
		if tags[i].Err == nil && errs[i] != nil {
			tags[i].Err = errs[i]
		}
		tags[i].Y = ykeys[i]
	}
	return OrderByY(ykeys)
}

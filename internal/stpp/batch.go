package stpp

import (
	"fmt"
	"sync"

	"repro/internal/dtw"
	"repro/internal/profile"
)

// batchScratch pools the lane bookkeeping of LocalizeTagsIncremental so a
// blocked detection run allocates nothing beyond what the per-tag calls
// themselves would.
type batchScratch struct {
	als  []*dtw.SegmentAligner
	qs   [][]dtw.Segment
	res  []dtw.BatchAlign
	tag  []int
	segs [][]dtw.Segment
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// LocalizeTagsIncremental runs LocalizeTagIncremental over a run of tags
// at once: out[k] is byte-identical to LocalizeTagIncremental(sts[k],
// ps[k]) for every k, but the DTW column fills of all tags in the run are
// fed to dtw.AlignBatch, which interleaves them over the detector's shared
// reference panels instead of streaming the panels once per tag. The three
// slices must have equal length and each tag must own its state. The run
// as a whole is one unit of work — callers parallelize across runs,
// not within one.
func (l *Localizer) LocalizeTagsIncremental(sts []*DetectState, ps []*profile.Profile, out []TagResult) {
	d := l.det
	sc := batchPool.Get().(*batchScratch)
	als, qs, tag, segsOf := sc.als[:0], sc.qs[:0], sc.tag[:0], sc.segs[:0]
	for k, p := range ps {
		st := sts[k]
		out[k] = TagResult{EPC: p.EPC, Profile: p}
		if p.Len() < d.cfg.MinVZoneSamples {
			out[k].Err = fmt.Errorf("stpp: profile has %d samples, need >= %d",
				p.Len(), d.cfg.MinVZoneSamples)
			continue
		}
		segs := st.segs.Segments(p)
		if len(segs) == 0 {
			out[k].Err = fmt.Errorf("stpp: empty segmentation")
			continue
		}
		als = append(als, st.al)
		qs = append(qs, segs)
		tag = append(tag, k)
		segsOf = append(segsOf, segs)
	}
	res := sc.res
	if cap(res) < len(als) {
		res = make([]dtw.BatchAlign, len(als))
	}
	res = res[:len(als)]
	dtw.AlignBatch(als, qs, res)
	for i, k := range tag {
		st, p := sts[k], ps[k]
		vz, err := d.vzoneFromAlignment(st, p, segsOf[i], res[i].Res)
		if err != nil {
			out[k].Err = err
			continue
		}
		out[k].VZone = vz
		xk, err := l.cfg.xKeyOf(st, p, vz)
		if err != nil {
			out[k].Err = err
			continue
		}
		out[k].X = xk
	}
	// Drop the aligner/segment pointers before pooling: a pooled scratch
	// must not keep an evicted tag's DP matrix reachable.
	for i := range als {
		als[i], qs[i], segsOf[i] = nil, nil, nil
		res[i] = dtw.BatchAlign{}
	}
	sc.als, sc.qs, sc.res, sc.tag, sc.segs = als[:0], qs[:0], res[:0], tag[:0], segsOf[:0]
	batchPool.Put(sc)
}

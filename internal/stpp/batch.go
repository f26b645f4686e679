package stpp

import "repro/internal/profile"

// LocalizeTagsIncremental runs LocalizeTagIncremental over a run of tags:
// out[k] is LocalizeTagIncremental(sts[k], ps[k]) for every k. The tags'
// aligners share the detector's reference panels, so a run keeps one copy
// of them cache-resident while it fills every tag's DP columns. The three
// slices must have equal length and each tag must own its state. The run
// as a whole is one unit of work — callers parallelize across runs, not
// within one.
func (l *Localizer) LocalizeTagsIncremental(sts []*DetectState, ps []*profile.Profile, out []TagResult) {
	for k, p := range ps {
		out[k] = l.LocalizeTagIncremental(sts[k], p)
	}
}

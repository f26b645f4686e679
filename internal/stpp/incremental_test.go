// The fixtures come from the scenario package, which imports stpp — hence
// the external test package.
package stpp_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/stpp"
)

// incrementalFixture synthesizes a couple of measured profiles plus the
// localizer that detects in them.
func incrementalFixture(t *testing.T) (*stpp.Localizer, []*profile.Profile) {
	t.Helper()
	s, err := scenario.Whiteboard(scenario.WhiteboardOpts{
		Positions: []geom.Vec2{{X: 0.6, Y: 0}, {X: 1.2, Y: 0.3}, {X: 1.8, Y: -0.2}},
		Speed:     0.15,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.ProfilesOf()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	return loc, ps
}

// prefix is the profile of p's first n samples, sharing its arrays: a
// growing stream's view of the profile after n reads.
func prefix(p *profile.Profile, n int) *profile.Profile {
	return &profile.Profile{EPC: p.EPC, Times: p.Times[:n], Phases: p.Phases[:n]}
}

// TestDetectIncrementalMatchesDetect grows each profile prefix by random
// strides — including prefixes too short to detect in — and asserts the
// resumed state returns exactly what a one-shot Detect over a fresh state
// returns at every step: same V-zone, same cost, same error text.
func TestDetectIncrementalMatchesDetect(t *testing.T) {
	loc, ps := incrementalFixture(t)
	det := loc.Detector()
	rng := rand.New(rand.NewSource(9))
	for pi, full := range ps {
		st := det.NewDetectState()
		n := 0
		for n < full.Len() {
			n += 1 + rng.Intn(60)
			if n > full.Len() {
				n = full.Len()
			}
			p := prefix(full, n)
			want, wantErr := det.Detect(p)
			got, gotErr := det.DetectIncremental(st, p)
			if (wantErr == nil) != (gotErr == nil) ||
				(wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("profile %d n=%d: err %v vs %v", pi, n, gotErr, wantErr)
			}
			if want != got {
				t.Fatalf("profile %d n=%d: V-zone %+v vs %+v", pi, n, got, want)
			}
		}
	}
}

// TestLocalizeTagIncrementalMatches covers the full per-tag stage
// (detection + X-keying): a resumed state matches the one-shot batch call
// at every prefix.
func TestLocalizeTagIncrementalMatches(t *testing.T) {
	loc, ps := incrementalFixture(t)
	for pi, full := range ps {
		st := loc.NewDetectState()
		for _, frac := range []int{3, 2, 1} {
			p := prefix(full, full.Len()/frac)
			want := loc.LocalizeTag(p)
			got := loc.LocalizeTagIncremental(st, p)
			if want.VZone != got.VZone || want.X != got.X {
				t.Fatalf("profile %d frac=1/%d: incremental diverged", pi, frac)
			}
		}
	}
}

// TestDetectIncrementalReset: after history is rewritten (not an append),
// Reset restores correctness.
func TestDetectIncrementalReset(t *testing.T) {
	loc, ps := incrementalFixture(t)
	det := loc.Detector()
	st := det.NewDetectState()
	if _, err := det.DetectIncremental(st, ps[0]); err != nil {
		t.Fatal(err)
	}
	// Switch to an unrelated profile of a different shape — the same move a
	// re-sorted profile makes. Without Reset the cache would silently lie.
	st.Reset()
	want, wantErr := det.Detect(ps[1])
	got, gotErr := det.DetectIncremental(st, ps[1])
	if (wantErr == nil) != (gotErr == nil) || want != got {
		t.Fatalf("after reset: got %+v (%v), want %+v (%v)", got, gotErr, want, wantErr)
	}
	// Rewrite samples near the tail in place, as a re-sort after a late
	// read does: the rebuilt segmentation changes only its last segments,
	// so the aligner resumes from the first of them.
	p := &profile.Profile{
		Times:  append([]float64(nil), ps[1].Times...),
		Phases: append([]float64(nil), ps[1].Phases...),
	}
	for back := 1; back <= 12 && back < p.Len(); back += 3 {
		k := p.Len() - back
		p.Phases[k], p.Phases[k-1] = p.Phases[k-1], p.Phases[k]
		st.Reset()
		want, wantErr := det.Detect(p)
		got, gotErr := det.DetectIncremental(st, p)
		if (wantErr == nil) != (gotErr == nil) || want != got {
			t.Fatalf("after rewriting sample %d: got %+v (%v), want %+v (%v)", k, got, gotErr, want, wantErr)
		}
	}
}

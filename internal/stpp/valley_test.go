package stpp

import (
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/profile"
)

// valleyProfile builds a clean V profile: phase = |t−c|·slope + base,
// wrapped.
func valleyProfile(center, slope, base float64) *profile.Profile {
	p := &profile.Profile{}
	for tt := 0.0; tt <= 2*center; tt += 0.01 {
		p.Times = append(p.Times, tt)
		p.Phases = append(p.Phases, dsp.WrapPhase(math.Abs(tt-center)*slope+base))
	}
	return p
}

// valleyWindow runs DetectState.ValleyWindow over a fresh state, as the Y
// stage's one-shot path does for a tag without one.
func valleyWindow(t *testing.T, p *profile.Profile, vz VZone, rise float64) (times, phases []float64) {
	t.Helper()
	d, err := NewDetector(DefaultConfig(0.33))
	if err != nil {
		t.Fatal(err)
	}
	return d.NewDetectState().ValleyWindow(nil, p, vz, rise)
}

func TestValleyWindowFixedDepth(t *testing.T) {
	p := valleyProfile(5, 2.0, 1.0) // rises 10 rad over each flank
	vz := VZone{Start: 0, End: p.Len()}
	times, phases := valleyWindow(t, p, vz, 3.0)
	if len(times) == 0 {
		t.Fatal("empty window")
	}
	// The window's phase range is ≈ the requested rise.
	min, max := dsp.MinMax(phases)
	if max-min < 2.7 || max-min > 3.5 {
		t.Errorf("window depth = %v, want ≈ 3.0", max-min)
	}
	// The minimum is the anchored bottom ≈ base.
	if math.Abs(min-1.0) > 0.1 {
		t.Errorf("anchored bottom = %v, want ≈ 1.0", min)
	}
	// Centered on the true bottom.
	mid := (times[0] + times[len(times)-1]) / 2
	if math.Abs(mid-5) > 0.2 {
		t.Errorf("window center = %v, want ≈ 5", mid)
	}
}

func TestValleyWindowEqualDepthAcrossBottoms(t *testing.T) {
	// Two tags with different bottom phases must get the same window depth
	// — that is the whole point versus raw V-zones.
	pa := valleyProfile(5, 2.0, 0.3)
	pb := valleyProfile(5, 2.0, 5.9) // bottom near the wrap boundary
	vza := VZone{Start: 0, End: pa.Len()}
	vzb := VZone{Start: 0, End: pb.Len()}
	_, phA := valleyWindow(t, pa, vza, 3.0)
	_, phB := valleyWindow(t, pb, vzb, 3.0)
	minA, maxA := dsp.MinMax(phA)
	minB, maxB := dsp.MinMax(phB)
	if math.Abs((maxA-minA)-(maxB-minB)) > 0.3 {
		t.Errorf("depths differ: %v vs %v", maxA-minA, maxB-minB)
	}
	// And the anchored bottoms preserve the wrapped bottom values.
	if math.Abs(minA-0.3) > 0.1 {
		t.Errorf("bottom A = %v", minA)
	}
	if math.Abs(minB-5.9) > 0.1 {
		t.Errorf("bottom B = %v", minB)
	}
}

func TestValleyWindowDegenerate(t *testing.T) {
	if ts, ps := valleyWindow(t, &profile.Profile{}, VZone{}, 1); ts != nil || ps != nil {
		t.Error("empty profile should yield nil window")
	}
	p := valleyProfile(2, 1, 1)
	if ts, _ := valleyWindow(t, p, VZone{Start: 5, End: 5}, 1); ts != nil {
		t.Error("empty V-zone should yield nil window")
	}
}

func TestAnchoredPhasesReproducesCleanVZone(t *testing.T) {
	// For a wrap-free V-zone, AnchoredPhases returns the wrapped values.
	p := valleyProfile(5, 0.3, 1.0) // shallow: max 1+1.5 < 2π, no wraps
	vz := VZone{Start: 0, End: p.Len()}
	_, anchored := AnchoredPhases(p, vz)
	for i := range anchored {
		if math.Abs(anchored[i]-p.Phases[i]) > 1e-9 {
			t.Fatalf("anchored[%d] = %v, raw %v", i, anchored[i], p.Phases[i])
		}
	}
}

func TestAnchoredPhasesContinuousAcrossNadirWrap(t *testing.T) {
	// A nadir that dips through 0 produces wrapped jumps; anchored values
	// must be continuous.
	p := &profile.Profile{}
	for tt := 0.0; tt <= 10; tt += 0.01 {
		raw := math.Abs(tt-5)*1.5 - 0.5 // dips to −0.5 → wraps near nadir
		p.Times = append(p.Times, tt)
		p.Phases = append(p.Phases, dsp.WrapPhase(raw))
	}
	vz := VZone{Start: 0, End: p.Len()}
	_, anchored := AnchoredPhases(p, vz)
	for i := 1; i < len(anchored); i++ {
		if math.Abs(anchored[i]-anchored[i-1]) > 0.5 {
			t.Fatalf("discontinuity at %d: %v -> %v", i, anchored[i-1], anchored[i])
		}
	}
}

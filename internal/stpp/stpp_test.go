package stpp

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dsp"
	"repro/internal/dtw"
	"repro/internal/epcgen2"
	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/phys"
	"repro/internal/profile"
	"repro/internal/reader"
)

var testWavelength = phys.ChinaBand.Wavelength(6)

// TestDetectStateHoldsResumableOnly pins, by reflection, that a tag's
// DetectState holds only what its next detection resumes from: its only
// float slices are the unwrap and median curves u and um, so the X-key
// fit's buffers and the valley window cannot come back as per-tag
// holdings, and no field holds a call scratch or a DTW fill scratch.
func TestDetectStateHoldsResumableOnly(t *testing.T) {
	var floats []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(DetectState{})) {
		switch f.Type {
		case reflect.TypeOf([]float64(nil)):
			floats = append(floats, f.Name)
		case reflect.TypeOf(callScratch{}), reflect.TypeOf(&callScratch{}),
			reflect.TypeOf(dtw.Scratch{}), reflect.TypeOf(&dtw.Scratch{}):
			t.Errorf("DetectState.%s holds per-call scratch (%v)", f.Name, f.Type)
		}
	}
	if want := []string{"u", "um"}; !slices.Equal(floats, want) {
		t.Errorf("DetectState float-slice fields %v, want only the resumable curves %v", floats, want)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(testWavelength).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig(testWavelength)
	bad.Window = 0
	if err := bad.Validate(); err == nil {
		t.Error("window=0 accepted")
	}
	bad = DefaultConfig(testWavelength)
	bad.YSegments = 1
	if err := bad.Validate(); err == nil {
		t.Error("ysegments=1 accepted")
	}
	bad = DefaultConfig(testWavelength)
	bad.MinVZoneSamples = 1
	if err := bad.Validate(); err == nil {
		t.Error("minvzone=1 accepted")
	}
	bad = DefaultConfig(testWavelength)
	bad.MedianWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("medianwidth=0 accepted")
	}
}

func TestDetectorOnSyntheticProfile(t *testing.T) {
	// The reference must find its own V-zone in a clone of itself.
	cfg := DefaultConfig(testWavelength)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, vs, ve := det.Reference()
	vz, err := det.Detect(ref)
	if err != nil {
		t.Fatal(err)
	}
	// The refinement deliberately stops 0.15 rad short of the wraps, so
	// allow ~45 samples of slop, and require the detection to stay inside
	// the true V-zone while covering most of it.
	const slop = 45
	if vz.Start < vs-slop || vz.End > ve+slop {
		t.Errorf("detected [%d,%d) spills outside [%d,%d)", vz.Start, vz.End, vs, ve)
	}
	if cov := float64(vz.End-vz.Start) / float64(ve-vs); cov < 0.8 {
		t.Errorf("detected V-zone covers only %.0f%% of the truth", cov*100)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDetectorOnStretchedProfile(t *testing.T) {
	// Time-warp the reference (slow down the second half): detection must
	// still locate the V-zone (this is what DTW buys us).
	cfg := DefaultConfig(testWavelength)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, vs, ve := det.Reference()
	warped := &profile.Profile{}
	for i := range ref.Times {
		tt := ref.Times[i]
		if i > ref.Len()/2 {
			tt = ref.Times[ref.Len()/2] + 1.8*(tt-ref.Times[ref.Len()/2])
		}
		warped.Times = append(warped.Times, tt)
		warped.Phases = append(warped.Phases, ref.Phases[i])
	}
	vz, err := det.Detect(warped)
	if err != nil {
		t.Fatal(err)
	}
	// Sample indices are unchanged by pure time warping.
	const slop = 45
	if vz.Start < vs-slop || vz.End > ve+slop {
		t.Errorf("warped detection [%d,%d) spills outside [%d,%d)", vz.Start, vz.End, vs, ve)
	}
	if cov := float64(vz.End-vz.Start) / float64(ve-vs); cov < 0.8 {
		t.Errorf("warped V-zone covers only %.0f%% of the truth", cov*100)
	}
}

func TestDetectorRejectsSparse(t *testing.T) {
	det, err := NewDetector(DefaultConfig(testWavelength))
	if err != nil {
		t.Fatal(err)
	}
	p := &profile.Profile{Times: []float64{0, 1}, Phases: []float64{1, 2}}
	if _, err := det.Detect(p); err == nil {
		t.Error("sparse profile accepted")
	}
}

func TestXKeyOfCleanParabola(t *testing.T) {
	cfg := DefaultConfig(testWavelength)
	// Build a V-zone-like parabola centered at t = 7.5 s.
	p := &profile.Profile{}
	for tt := 5.0; tt <= 10; tt += 0.01 {
		p.Times = append(p.Times, tt)
		p.Phases = append(p.Phases, 0.8*(tt-7.5)*(tt-7.5)+1.2)
	}
	vz := VZone{Start: 0, End: p.Len()}
	k, err := cfg.XKeyOf(p, vz)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.BottomTime-7.5) > 0.01 {
		t.Errorf("bottom time = %v, want 7.5", k.BottomTime)
	}
	if math.Abs(k.BottomPhase-1.2) > 0.01 {
		t.Errorf("bottom phase = %v, want 1.2", k.BottomPhase)
	}
	if k.R2 < 0.99 {
		t.Errorf("R2 = %v", k.R2)
	}
}

func TestXKeyOfWrappedNadir(t *testing.T) {
	// The nadir dips below 0 and wraps to just under 2π — the quadratic
	// fit must survive via unwrapping (Section 3.1.2's noted hazard).
	cfg := DefaultConfig(testWavelength)
	p := &profile.Profile{}
	for tt := 5.0; tt <= 10; tt += 0.01 {
		raw := 0.8*(tt-7.5)*(tt-7.5) - 0.4 // dips to -0.4
		p.Times = append(p.Times, tt)
		p.Phases = append(p.Phases, dsp.WrapPhase(raw))
	}
	k, err := cfg.XKeyOf(p, VZone{Start: 0, End: p.Len()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k.BottomTime-7.5) > 0.05 {
		t.Errorf("wrapped-nadir bottom time = %v, want 7.5", k.BottomTime)
	}
}

func TestXKeyOfTooFewSamples(t *testing.T) {
	cfg := DefaultConfig(testWavelength)
	p := &profile.Profile{Times: []float64{0, 1}, Phases: []float64{1, 2}}
	if _, err := cfg.XKeyOf(p, VZone{Start: 0, End: 2}); err == nil {
		t.Error("2-sample V-zone accepted")
	}
}

func TestXKeyFallsBackOnMonotone(t *testing.T) {
	// A monotone ramp has no interior minimum; the key must fall back to
	// the raw minimum rather than extrapolate absurdly.
	cfg := DefaultConfig(testWavelength)
	p := &profile.Profile{}
	for tt := 0.0; tt <= 1; tt += 0.01 {
		p.Times = append(p.Times, tt)
		p.Phases = append(p.Phases, 0.5+tt) // rising line
	}
	k, err := cfg.XKeyOf(p, VZone{Start: 0, End: p.Len()})
	if err != nil {
		t.Fatal(err)
	}
	if k.BottomTime < -1 || k.BottomTime > 2 {
		t.Errorf("fallback bottom time = %v, should stay near the window", k.BottomTime)
	}
}

func TestOrderByX(t *testing.T) {
	keys := []XKey{
		{BottomTime: 3},
		{BottomTime: 1},
		{BottomTime: math.NaN()},
		{BottomTime: 2},
	}
	got := OrderByX(keys)
	want := []int{1, 3, 0, 2} // NaN last
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderByX = %v, want %v", got, want)
		}
	}
}

func TestOMetricDirection(t *testing.T) {
	sp := []float64{5, 5, 5}
	sq := []float64{4, 4, 4}
	o, err := OMetric(sp, sq)
	if err != nil {
		t.Fatal(err)
	}
	if o <= 0 {
		t.Errorf("O(P>Q) = %v, want > 0", o)
	}
	o2, _ := OMetric(sq, sp)
	if o2 >= 0 {
		t.Errorf("O(P<Q) = %v, want < 0", o2)
	}
	if _, err := OMetric([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Zero means are skipped, not divided by.
	o3, err := OMetric([]float64{0, 2}, []float64{1, 1})
	if err != nil || math.IsInf(o3, 0) || math.IsNaN(o3) {
		t.Errorf("zero-mean handling: %v, %v", o3, err)
	}
}

func TestGMetric(t *testing.T) {
	g, err := GMetric([]float64{1, 2, 3}, []float64{2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if g != 3 {
		t.Errorf("G = %v, want 3", g)
	}
	if _, err := GMetric([]float64{1}, []float64{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestGMetricGrowsWithSpacing(t *testing.T) {
	base := []float64{3, 2, 1, 2, 3}
	near := []float64{3.2, 2.2, 1.2, 2.2, 3.2}
	far := []float64{4, 3, 2, 3, 4}
	gNear, _ := GMetric(base, near)
	gFar, _ := GMetric(base, far)
	if gFar <= gNear {
		t.Errorf("G not monotone with spacing: %v vs %v", gFar, gNear)
	}
}

func TestOrderByY(t *testing.T) {
	keys := []YKey{
		{Signed: 0.5},
		{Signed: -1.2},
		{Signed: 0},
	}
	got := OrderByY(keys)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OrderByY = %v, want %v", got, want)
		}
	}
}

// --- end-to-end tests on the simulator ---

// whiteboard builds the paper's whiteboard scene: tags in the z=0 plane,
// the antenna sweeping parallel to X at standoff (normal) distance and
// below the tags in y.
func whiteboard(t *testing.T, tagPos []geom.Vec2, speed float64, seed int64, jitter bool) []reader.TagRead {
	t.Helper()
	var tags []reader.Tag
	for i, tp := range tagPos {
		tags = append(tags, reader.Tag{
			EPC:   epcgen2.NewEPC(uint64(i + 1)),
			Model: reader.AlienALN9662,
			Traj:  motion.Static{P: geom.V3(tp.X, tp.Y, 0)},
		})
	}
	// Antenna line 15 cm below the tags in y, 30 cm standoff in z. Keeping
	// the per-tag perpendicular-distance deltas well under λ/2 is a
	// requirement of the paper's Y-ordering (mod-2π ambiguity).
	from := geom.V3(-0.6, -0.15, 0.30)
	to := geom.V3(3.0, -0.15, 0.30)
	var traj motion.Trajectory
	if jitter {
		mp, err := motion.NewManualPush(from, to, speed, motion.DefaultManualPushParams(seed))
		if err != nil {
			t.Fatal(err)
		}
		traj = mp
	} else {
		lin, err := motion.NewLinear(from, to, speed)
		if err != nil {
			t.Fatal(err)
		}
		traj = lin
	}
	env := phys.LibraryEnvironment(0.4, 1.0)
	sim, err := reader.New(reader.Config{Channel: 6, Seed: seed, Env: env}, traj, tags)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run(traj.Duration())
}

func localizerForTest(t *testing.T) *Localizer {
	t.Helper()
	cfg := DefaultConfig(testWavelength)
	// Whiteboard geometry: standoff 0.30 in z, 0.15 below in y → perp
	// distance ≈ 0.335 for tags at y=0.
	cfg.Reference.PerpDist = 0.335
	loc, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

func TestLocalizeXOrderEndToEnd(t *testing.T) {
	// Five tags along X, 15 cm apart, same Y: X order must be exact.
	pos := []geom.Vec2{
		{X: 0.3, Y: 0}, {X: 0.45, Y: 0}, {X: 0.6, Y: 0}, {X: 0.75, Y: 0}, {X: 0.9, Y: 0},
	}
	reads := whiteboard(t, pos, 0.1, 11, false)
	loc := localizerForTest(t)
	res, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tags {
		if tr.Err != nil {
			t.Fatalf("tag %d failed: %v", i, tr.Err)
		}
	}
	got := res.XOrderEPCs()
	for i := range pos {
		want := epcgen2.NewEPC(uint64(i + 1))
		if got[i] != want {
			t.Fatalf("X order[%d] = %v, want %v (full order %v)", i, got[i], want, got)
		}
	}
}

func TestLocalizeXOrderWithManualPush(t *testing.T) {
	// Same but with jittered cart speed: DTW must absorb the warping.
	pos := []geom.Vec2{
		{X: 0.3, Y: 0}, {X: 0.5, Y: 0}, {X: 0.7, Y: 0}, {X: 0.9, Y: 0},
	}
	reads := whiteboard(t, pos, 0.15, 13, true)
	loc := localizerForTest(t)
	res, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	got := res.XOrderEPCs()
	for i := range pos {
		want := epcgen2.NewEPC(uint64(i + 1))
		if got[i] != want {
			t.Fatalf("X order under jitter = %v", got)
		}
	}
}

func TestLocalizeYOrderEndToEnd(t *testing.T) {
	// Three tags at the same X but different Y (different distances from
	// the antenna line): Y order must be recovered.
	pos := []geom.Vec2{
		{X: 0.8, Y: 0.00}, // nearest to the antenna line (y=-0.15)
		{X: 1.2, Y: 0.06},
		{X: 1.6, Y: 0.12}, // farthest
	}
	reads := whiteboard(t, pos, 0.1, 17, false)
	loc := localizerForTest(t)
	res, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	got := res.YOrderEPCs()
	for i := range pos {
		want := epcgen2.NewEPC(uint64(i + 1))
		if got[i] != want {
			t.Fatalf("Y order = %v (keys %+v)", got, res.Tags)
		}
	}
}

func TestLocalizeEmpty(t *testing.T) {
	loc := localizerForTest(t)
	if _, err := loc.LocalizeReads(nil); err == nil {
		t.Error("empty read log accepted")
	}
	if _, err := loc.Localize(nil); err == nil {
		t.Error("empty profiles accepted")
	}
}

func TestLocalizeSurvivesBadTag(t *testing.T) {
	// One tag with a hopeless profile (3 reads) must not break the others.
	pos := []geom.Vec2{{X: 0.4, Y: 0}, {X: 0.8, Y: 0}}
	reads := whiteboard(t, pos, 0.1, 19, false)
	ghost := epcgen2.NewEPC(99)
	reads = append(reads,
		reader.TagRead{EPC: ghost, Time: 1, Phase: 1, RSSI: -60},
		reader.TagRead{EPC: ghost, Time: 2, Phase: 2, RSSI: -60},
	)
	loc := localizerForTest(t)
	res, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	var ghostErr error
	for _, tr := range res.Tags {
		if tr.EPC == ghost {
			ghostErr = tr.Err
		}
	}
	if ghostErr == nil {
		t.Error("ghost tag did not error")
	}
	// Remaining tags still ordered.
	got := res.XOrderEPCs()
	if got[0] != epcgen2.NewEPC(1) || got[1] != epcgen2.NewEPC(2) {
		t.Errorf("X order with ghost = %v", got)
	}
}

func TestDetectFullAgreesWithSegmented(t *testing.T) {
	pos := []geom.Vec2{{X: 0.8, Y: 0}}
	reads := whiteboard(t, pos, 0.1, 23, false)
	loc := localizerForTest(t)
	ps := profile.FromReads(reads)
	if len(ps) != 1 {
		t.Fatal("expected one profile")
	}
	seg, err := loc.Detector().Detect(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	full, err := loc.Detector().DetectFull(ps[0])
	if err != nil {
		t.Fatal(err)
	}
	// Bottom times from the two detections agree within 0.5 s.
	cfg := loc.Config()
	kSeg, err := cfg.XKeyOf(ps[0], seg)
	if err != nil {
		t.Fatal(err)
	}
	kFull, err := cfg.XKeyOf(ps[0], full)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kSeg.BottomTime-kFull.BottomTime) > 0.5 {
		t.Errorf("segmented vs full bottoms: %v vs %v", kSeg.BottomTime, kFull.BottomTime)
	}
}

func TestLocalize3D(t *testing.T) {
	// Three orthogonal passes over 3 tags at distinct coordinates on every
	// axis. Each pass is its own whiteboard-style scene.
	mkPass := func(order [][3]float64, axis int, seed int64) []reader.TagRead {
		var tags []reader.Tag
		for i, c := range order {
			tags = append(tags, reader.Tag{
				EPC:   epcgen2.NewEPC(uint64(i + 1)),
				Model: reader.AlienALN9662,
				Traj:  motion.Static{P: geom.V3(c[0], c[1], c[2])},
			})
		}
		var from, to geom.Vec3
		switch axis {
		case 0:
			from, to = geom.V3(-0.5, -0.25, 0.25), geom.V3(2.0, -0.25, 0.25)
		case 1:
			from, to = geom.V3(-0.25, -0.5, 0.25), geom.V3(-0.25, 2.0, 0.25)
		default:
			from, to = geom.V3(-0.25, 0.25, -0.5), geom.V3(-0.25, 0.25, 2.0)
		}
		traj, err := motion.NewLinear(from, to, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := reader.New(reader.Config{Channel: 6, Seed: seed}, traj, tags)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(traj.Duration())
	}
	coords := [][3]float64{
		{0.3, 0.9, 0.6},
		{0.6, 0.3, 0.9},
		{0.9, 0.6, 0.3},
	}
	loc := localizerForTest(t)
	var passes [3][]reader.TagRead
	for a := 0; a < 3; a++ {
		passes[a] = mkPass(coords, a, int64(31+a))
	}
	res, err := loc.Localize3D(passes)
	if err != nil {
		t.Fatal(err)
	}
	wantOrders := [3][]uint64{
		{1, 2, 3}, // ascending x
		{2, 3, 1}, // ascending y
		{3, 1, 2}, // ascending z
	}
	for a := 0; a < 3; a++ {
		for i, w := range wantOrders[a] {
			if res.AxisOrders[a][i] != epcgen2.NewEPC(w) {
				t.Errorf("axis %d order = %v, want serials %v", a, res.AxisOrders[a], wantOrders[a])
				break
			}
		}
	}
}

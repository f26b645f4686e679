package phys

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBandFreq(t *testing.T) {
	b := ChinaBand
	if got := b.Freq(0); got != 920.625e6 {
		t.Errorf("Freq(0) = %v", got)
	}
	if got := b.Freq(6); got != 920.625e6+6*250e3 {
		t.Errorf("Freq(6) = %v", got)
	}
	// Wrap-around.
	if got := b.Freq(16); got != b.Freq(0) {
		t.Errorf("Freq(16) = %v, want Freq(0)", got)
	}
	if got := b.Freq(-1); got != b.Freq(15) {
		t.Errorf("Freq(-1) = %v, want Freq(15)", got)
	}
}

func TestBandWavelength(t *testing.T) {
	b := ChinaBand
	wl := b.Wavelength(6)
	// 922.125 MHz → ~0.325 m.
	if wl < 0.32 || wl > 0.33 {
		t.Errorf("Wavelength(6) = %v, want ~0.325", wl)
	}
	if got := SpeedOfLight / b.Freq(6); got != wl {
		t.Errorf("Wavelength(6) = %v, want c/Freq(6) = %v", wl, got)
	}
}

func TestBandValidate(t *testing.T) {
	if err := ChinaBand.Validate(); err != nil {
		t.Errorf("ChinaBand invalid: %v", err)
	}
	bad := []Band{
		{BaseHz: 0, Channels: 1},
		{BaseHz: 900e6, Channels: 0},
		{BaseHz: 900e6, Channels: 4, SpacingHz: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad band %d validated", i)
		}
	}
}

func TestHopSequence(t *testing.T) {
	b := ChinaBand
	s1 := b.HopSequence(1, 100)
	s2 := b.HopSequence(1, 100)
	s3 := b.HopSequence(2, 100)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("hop sequence not deterministic")
		}
		if s1[i] < 0 || s1[i] >= b.Channels {
			t.Fatalf("hop %d out of range: %d", i, s1[i])
		}
	}
	same := true
	for i := range s1 {
		if s1[i] != s3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical hop sequences")
	}
	// Coverage: a long sequence should visit many channels.
	seen := map[int]bool{}
	for _, c := range b.HopSequence(3, 1000) {
		seen[c] = true
	}
	if len(seen) < b.Channels/2 {
		t.Errorf("hop sequence visited only %d channels", len(seen))
	}
}

func TestPhaseOffsetsMu(t *testing.T) {
	po := PhaseOffsets{ReaderTx: 0.1, ReaderRx: 0.2, Tag: 0.3}
	if !approx(po.Mu(), 0.6, 1e-12) {
		t.Errorf("Mu = %v", po.Mu())
	}
}

func TestFreeSpaceRSSIMonotone(t *testing.T) {
	lb := DefaultLinkBudget()
	wl := 0.325
	prev := lb.FreeSpaceRSSI(0.3, wl)
	for d := 0.5; d < 10; d += 0.5 {
		cur := lb.FreeSpaceRSSI(d, wl)
		if cur >= prev {
			t.Fatalf("RSSI not decreasing at d=%v: %v >= %v", d, cur, prev)
		}
		prev = cur
	}
}

func TestFreeSpaceRSSIFourthPower(t *testing.T) {
	lb := DefaultLinkBudget()
	wl := 0.325
	// Doubling distance must cost 40·log10(2) ≈ 12.04 dB.
	d1 := lb.FreeSpaceRSSI(1, wl)
	d2 := lb.FreeSpaceRSSI(2, wl)
	if !approx(d1-d2, 40*math.Log10(2), 1e-9) {
		t.Errorf("doubling cost = %v dB, want ~12.04", d1-d2)
	}
}

func TestFreeSpaceRSSIGuardsZeroDistance(t *testing.T) {
	lb := DefaultLinkBudget()
	v := lb.FreeSpaceRSSI(0, 0.325)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("RSSI at d=0 = %v", v)
	}
}

func TestChannelRSSI(t *testing.T) {
	lb := DefaultLinkBudget()
	wl := 0.325
	base := lb.FreeSpaceRSSI(1, wl)
	// Unit channel leaves RSSI unchanged.
	if got := lb.ChannelRSSI(1, wl, 1); !approx(got, base, 1e-9) {
		t.Errorf("unit channel RSSI = %v, want %v", got, base)
	}
	// |h| = 0.5 costs 40·log10(2) dB due to the squared backscatter channel.
	if got := lb.ChannelRSSI(1, wl, 0.5); !approx(base-got, 40*math.Log10(2), 1e-9) {
		t.Errorf("half channel delta = %v", base-got)
	}
	if got := lb.ChannelRSSI(1, wl, 0); !math.IsInf(got, -1) {
		t.Errorf("zero channel RSSI = %v, want -Inf", got)
	}
}

func TestReadable(t *testing.T) {
	lb := DefaultLinkBudget()
	if !lb.Readable(-60) {
		t.Error("-60 dBm should be readable")
	}
	if lb.Readable(-90) {
		t.Error("-90 dBm should not be readable")
	}
}

func TestOneWayChannelFreeSpace(t *testing.T) {
	env := FreeSpace()
	h := env.OneWayChannel(geom.V3(0, 0, 1), geom.V3(0, 0, 0), 0.325)
	if !approx(real(h), 1, 1e-12) || !approx(imag(h), 0, 1e-12) {
		t.Errorf("free-space channel = %v, want 1", h)
	}
}

func TestOneWayChannelReflector(t *testing.T) {
	// A single reflector must change both magnitude and phase, and the
	// perturbation must shrink as Γ→0.
	mk := func(gamma float64) complex128 {
		env := &Environment{Reflectors: []Reflector{{
			Plane: geom.Plane{Point: geom.V3(0, 1, 0), Normal: geom.V3(0, -1, 0)},
			Gamma: gamma,
		}}}
		return env.OneWayChannel(geom.V3(0, 0, 1), geom.V3(0.3, 0, 0), 0.325)
	}
	strong := mk(-0.9)
	weak := mk(-0.1)
	dStrong := math.Hypot(real(strong)-1, imag(strong))
	dWeak := math.Hypot(real(weak)-1, imag(weak))
	if dStrong <= dWeak {
		t.Errorf("stronger reflector perturbs less: %v <= %v", dStrong, dWeak)
	}
	if dWeak == 0 {
		t.Error("weak reflector had no effect")
	}
}

func TestLibraryEnvironmentShape(t *testing.T) {
	env := LibraryEnvironment(0.35, 1.2)
	if len(env.Reflectors) != 2 {
		t.Fatalf("reflectors = %d", len(env.Reflectors))
	}
	if env.RicianK <= 0 {
		t.Error("library K should be positive")
	}
}

func TestAirportEnvironmentShape(t *testing.T) {
	env := AirportEnvironment(1.5)
	if len(env.Reflectors) != 3 {
		t.Fatalf("reflectors = %d", len(env.Reflectors))
	}
}

func TestDiffuseFaderDeterministic(t *testing.T) {
	env := LibraryEnvironment(0.4, 1)
	f1 := NewDiffuseFader(env, 99)
	f2 := NewDiffuseFader(env, 99)
	p := geom.V3(1, 2, 3)
	if f1.At(p) != f2.At(p) {
		t.Error("fader not deterministic for equal seeds")
	}
	f3 := NewDiffuseFader(env, 100)
	if f1.At(p) == f3.At(p) {
		t.Error("different seeds gave identical fading")
	}
}

func TestDiffuseFaderDisabled(t *testing.T) {
	env := FreeSpace()
	f := NewDiffuseFader(env, 1)
	if f.At(geom.V3(0, 0, 0)) != 0 {
		t.Error("fader should be zero when disabled")
	}
}

func TestDiffuseFaderPowerScale(t *testing.T) {
	// Mean squared magnitude should be ≈ 1/K.
	env := &Environment{RicianK: 4, DiffuseCoherence: 0.1}
	f := NewDiffuseFader(env, 5)
	var sum float64
	n := 0
	for x := 0.0; x < 10; x += 0.05 {
		h := f.At(geom.V3(x, 0.3*x, 0))
		sum += real(h)*real(h) + imag(h)*imag(h)
		n++
	}
	mean := sum / float64(n)
	if mean < 0.1 || mean > 0.5 {
		t.Errorf("diffuse power = %v, want ≈ 0.25", mean)
	}
}

func TestChannelCombines(t *testing.T) {
	env := LibraryEnvironment(0.4, 1)
	fader := NewDiffuseFader(env, 7)
	a, tag := geom.V3(0, 0, 1), geom.V3(0.5, 0.1, 0)
	h1 := env.Channel(a, tag, 0.325, nil)
	h2 := env.Channel(a, tag, 0.325, fader)
	if h1 == h2 {
		t.Error("fader had no effect on combined channel")
	}
}

func TestNoiseModelPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nm := DefaultNoiseModel()
	for i := 0; i < 1000; i++ {
		p := nm.ApplyPhase(rng.Float64()*2*math.Pi, rng)
		if p < 0 || p >= 2*math.Pi {
			t.Fatalf("noisy phase out of range: %v", p)
		}
	}
}

func TestNoiseModelPhaseQuantization(t *testing.T) {
	nm := NoiseModel{PhaseQuantBits: 4} // 16 levels
	rng := rand.New(rand.NewSource(4))
	step := 2 * math.Pi / 16
	for i := 0; i < 100; i++ {
		p := nm.ApplyPhase(rng.Float64()*2*math.Pi, rng)
		k := p / step
		if !approx(k, math.Round(k), 1e-9) {
			t.Fatalf("phase %v not on a 16-level grid", p)
		}
	}
}

func TestNoiseModelRSSIQuantization(t *testing.T) {
	nm := NoiseModel{RSSIQuantDB: 0.5}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		r := nm.ApplyRSSI(-60+rng.Float64()*20, rng)
		k := r / 0.5
		if !approx(k, math.Round(k), 1e-9) {
			t.Fatalf("RSSI %v not on 0.5 dB grid", r)
		}
	}
}

func TestNoiseModelZeroIsIdentityForPhaseValue(t *testing.T) {
	nm := NoiseModel{}
	rng := rand.New(rand.NewSource(6))
	if got := nm.ApplyPhase(1.234, rng); !approx(got, 1.234, 1e-12) {
		t.Errorf("zero noise changed phase: %v", got)
	}
	if got := nm.ApplyRSSI(-55.5, rng); !approx(got, -55.5, 1e-12) {
		t.Errorf("zero noise changed RSSI: %v", got)
	}
}

func TestPhaseConstant(t *testing.T) {
	wl := 0.325
	if got := PhaseConstant(wl); !approx(got, 4*math.Pi/wl, 1e-12) {
		t.Errorf("PhaseConstant = %v", got)
	}
}

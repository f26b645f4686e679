package profile

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/epcgen2"
	"repro/internal/reader"
)

func mkProfile(phases []float64) *Profile {
	p := &Profile{Phases: phases}
	for i := range phases {
		p.Times = append(p.Times, float64(i)*0.01)
	}
	return p
}

func TestFromReadsGroupsAndOrders(t *testing.T) {
	e1, e2 := epcgen2.NewEPC(1), epcgen2.NewEPC(2)
	reads := []reader.TagRead{
		{EPC: e2, Time: 0.1, Phase: 1, RSSI: -50},
		{EPC: e1, Time: 0.2, Phase: 2, RSSI: -51},
		{EPC: e2, Time: 0.3, Phase: 3, RSSI: -52},
		{EPC: e1, Time: 0.4, Phase: 4, RSSI: -53},
	}
	ps := FromReads(reads)
	if len(ps) != 2 {
		t.Fatalf("profiles = %d", len(ps))
	}
	// Order of first appearance: e2 first.
	if ps[0].EPC != e2 || ps[1].EPC != e1 {
		t.Errorf("profile order wrong")
	}
	if ps[0].Len() != 2 || ps[0].Phases[1] != 3 {
		t.Errorf("grouping wrong: %+v", ps[0])
	}
	if ps[0].RSSI[0] != -50 {
		t.Errorf("rssi lost")
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("invalid profile: %v", err)
		}
	}
}

func TestFromReadsSortsDisorderedTimes(t *testing.T) {
	e := epcgen2.NewEPC(9)
	reads := []reader.TagRead{
		{EPC: e, Time: 0.5, Phase: 5, RSSI: -55},
		{EPC: e, Time: 0.1, Phase: 1, RSSI: -51},
		{EPC: e, Time: 0.3, Phase: 3, RSSI: -53},
	}
	ps := FromReads(reads)
	p := ps[0]
	if !(p.Times[0] == 0.1 && p.Times[1] == 0.3 && p.Times[2] == 0.5) {
		t.Errorf("times not sorted: %v", p.Times)
	}
	if !(p.Phases[0] == 1 && p.RSSI[2] == -55) {
		t.Errorf("parallel arrays not permuted")
	}
}

func TestFromReadsEmpty(t *testing.T) {
	if ps := FromReads(nil); len(ps) != 0 {
		t.Errorf("profiles from no reads: %d", len(ps))
	}
}

func TestValidateCatchesBadData(t *testing.T) {
	bad := []*Profile{
		{Times: []float64{0, 1}, Phases: []float64{1}},
		{Times: []float64{1, 0}, Phases: []float64{1, 1}},
		{Times: []float64{0, 1}, Phases: []float64{1, 7}},
		{Times: []float64{0}, Phases: []float64{-0.1}},
		{Times: []float64{0}, Phases: []float64{1}, RSSI: []float64{-50, -51}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated", i)
		}
	}
}

func TestSliceSharesAndBounds(t *testing.T) {
	p := mkProfile([]float64{1, 2, 3, 4, 5})
	p.RSSI = []float64{-1, -2, -3, -4, -5}
	s := p.Slice(1, 4)
	if s.Len() != 3 || s.Phases[0] != 2 || s.RSSI[2] != -4 {
		t.Errorf("slice wrong: %+v", s)
	}
	if s.Duration() <= 0 {
		t.Error("slice duration")
	}
}

func TestDuration(t *testing.T) {
	p := mkProfile([]float64{1, 2, 3})
	if !almost(p.Duration(), 0.02) {
		t.Errorf("Duration = %v", p.Duration())
	}
	if (&Profile{}).Duration() != 0 {
		t.Error("empty duration != 0")
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSegmentizeBasic(t *testing.T) {
	p := mkProfile([]float64{1, 2, 3, 2, 1, 0.5})
	segs := p.Segmentize(3)
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].Lo != 1 || segs[0].Hi != 3 {
		t.Errorf("seg0 range = [%v,%v]", segs[0].Lo, segs[0].Hi)
	}
	if segs[0].Start != 0 || segs[0].End != 3 || segs[1].Start != 3 || segs[1].End != 6 {
		t.Errorf("seg bounds wrong: %+v", segs)
	}
	// Intervals are the time spans.
	if !almost(segs[0].Interval, 0.02) {
		t.Errorf("interval = %v", segs[0].Interval)
	}
}

func TestSegmentizeSplitsAtWraps(t *testing.T) {
	// Phase wraps from 0.2 to 6.1 mid-chunk: must split so no segment has
	// range spanning the jump.
	p := mkProfile([]float64{0.4, 0.2, 6.1, 6.0, 5.9, 5.8})
	segs := p.Segmentize(6)
	if len(segs) < 2 {
		t.Fatalf("wrap not split: %+v", segs)
	}
	for i, s := range segs {
		if s.Hi-s.Lo > math.Pi {
			t.Errorf("segment %d spans a wrap: [%v, %v]", i, s.Lo, s.Hi)
		}
	}
}

func TestSegmentizeWidthClamp(t *testing.T) {
	p := mkProfile([]float64{1, 2, 3})
	segs := p.Segmentize(0) // clamps to 1
	if len(segs) != 3 {
		t.Errorf("w=0 segments = %d", len(segs))
	}
}

func TestSegmentizeCoversAllSamples(t *testing.T) {
	f := func(raw []uint8, wRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		phases := make([]float64, len(raw))
		for i, r := range raw {
			phases[i] = float64(r) / 256 * 2 * math.Pi
		}
		p := mkProfile(phases)
		w := int(wRaw%10) + 1
		segs := p.Segmentize(w)
		// Segments tile [0, len) exactly.
		at := 0
		for _, s := range segs {
			if s.Start != at || s.End <= s.Start {
				return false
			}
			at = s.End
		}
		return at == p.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

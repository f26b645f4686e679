package profile

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dtw"
	"repro/internal/epcgen2"
	"repro/internal/reader"
)

// randWrappedPhases synthesizes a phase walk with genuine 0↔2π wraps so
// the segmenter's wrap-splitting path is exercised.
func randWrappedProfile(rng *rand.Rand, n int) *Profile {
	p := &Profile{}
	t, ph := 0.0, rng.Float64()*2*math.Pi
	for i := 0; i < n; i++ {
		t += 0.01 + rng.Float64()*0.05
		ph = math.Mod(ph+rng.NormFloat64()*0.9+2*math.Pi, 2*math.Pi)
		p.Times = append(p.Times, t)
		p.Phases = append(p.Phases, ph)
	}
	return p
}

// TestSegmentCacheMatchesSegmentize grows profiles in random increments and
// asserts the cache's resumable scan is element-for-element identical to a
// fresh Segmentize at every step.
func TestSegmentCacheMatchesSegmentize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		w := 1 + rng.Intn(8)
		full := randWrappedProfile(rng, 40+rng.Intn(300))
		c := NewSegmentCache(w)
		n := 0
		for n < full.Len() {
			n += 1 + rng.Intn(25)
			if n > full.Len() {
				n = full.Len()
			}
			prefix := full.Slice(0, n)
			got, _ := c.Segments(prefix)
			want := prefix.Segmentize(w)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d (w=%d, n=%d): cache diverged\n got %v\nwant %v",
					trial, w, n, got, want)
			}
		}
	}
}

// TestSegmentCacheInvalidate rebuilds from scratch after history changed.
func TestSegmentCacheInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randWrappedProfile(rng, 120)
	b := randWrappedProfile(rng, 90)
	c := NewSegmentCache(5)
	c.Segments(a)

	// A different (shorter) profile without Invalidate: the shrink is
	// detected defensively.
	if got, _ := c.Segments(b); !reflect.DeepEqual(b.Segmentize(5), got) {
		t.Fatal("shrunken profile not rebuilt")
	}

	// Same length, different content: the cache cannot see this — the owner
	// must invalidate, after which the result is correct again.
	c.Invalidate()
	if got, _ := c.Segments(a.Slice(0, 90)); !reflect.DeepEqual(a.Slice(0, 90).Segmentize(5), got) {
		t.Fatal("invalidated cache did not rebuild")
	}
}

// segScript reads a segment-cache scenario from bytes, so the property
// test and the fuzz target drive the same interpreter: a segment width,
// then operations on one profile until the bytes run out. Phases come
// from a small grid that holds both zeros and values a wrap apart, so
// segments tie, differ only in the sign of a zero, and split at wraps.
type segScript struct {
	data []byte
	pos  int
}

func (s *segScript) next() int {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return int(s.data[s.pos-1])
}

var scriptPhases = [...]float64{0, math.Copysign(0, -1), 0.5, 1, 3, 3, 5, 6.2}

// firstDiff is the first index at which two segment lists differ bit for
// bit, counting the shorter list's end as a difference.
func firstDiff(a, b []dtw.Segment) int {
	k := 0
	for k < len(a) && k < len(b) && sameSegment(a[k], b[k]) {
		k++
	}
	return k
}

// runSegScript replays a scenario of appends, in-place rewrites followed
// by Invalidate, bare Invalidates, shrinks and repeated calls through one
// SegmentCache, and checks after every call that the segments equal a
// fresh Segmentize bit for bit and that the reported changed index is the
// first bit-for-bit difference from the previous call's list — the
// contract DP columns are resumed on. It returns how many calls took the
// append path and how many rebuilt.
func runSegScript(t *testing.T, data []byte) (appends, rebuilds int) {
	t.Helper()
	s := &segScript{data: data}
	w := 1 + s.next()%8
	c := NewSegmentCache(w)
	p := &Profile{}
	var prev []dtw.Segment
	for s.pos < len(s.data) {
		op := s.next() % 7
		switch op {
		case 0, 1, 2: // append
			for k := 1 + s.next()%8; k > 0; k-- {
				tm := 0.0
				if n := p.Len(); n > 0 {
					tm = p.Times[n-1]
				}
				p.Times = append(p.Times, tm+float64(1+s.next()%3)*0.25)
				p.Phases = append(p.Phases, scriptPhases[s.next()%len(scriptPhases)])
			}
		case 3: // rewrite one sample in place, then invalidate
			if n := p.Len(); n > 0 {
				p.Phases[s.next()%n] = scriptPhases[s.next()%len(scriptPhases)]
			}
			c.Invalidate()
		case 4: // shrink
			if n := p.Len(); n > 0 {
				k := s.next() % n
				p.Times, p.Phases = p.Times[:k], p.Phases[:k]
			}
		case 5:
			c.Invalidate()
		case 6: // same profile again
		}
		before := c.n
		got, changed := c.Segments(p)
		want := p.Segmentize(w)
		if d := firstDiff(want, got); d != len(want) || len(got) != len(want) {
			t.Fatalf("op %d (w=%d n=%d): segment %d differs from Segmentize\n got %v\nwant %v", op, w, p.Len(), d, got, want)
		}
		if d := firstDiff(prev, got); changed != d {
			t.Fatalf("op %d (w=%d n=%d): changed = %d, first difference from the previous list is %d", op, w, p.Len(), changed, d)
		}
		if before >= 0 && p.Len() > before {
			appends++
		} else if p.Len() != before {
			rebuilds++
		}
		prev = append(prev[:0], got...)
	}
	return appends, rebuilds
}

// TestSegmentCacheChangedIndex is the changed index's property: over
// random scenarios every call reports exactly the first segment that
// differs bit for bit from the previous call's list — on the append path,
// after Invalidate and after a shrink — and the scenarios reach both the
// append path and the rebuild.
func TestSegmentCacheChangedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	appends, rebuilds := 0, 0
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 20+rng.Intn(200))
		rng.Read(data)
		a, r := runSegScript(t, data)
		appends += a
		rebuilds += r
	}
	if appends == 0 || rebuilds == 0 {
		t.Errorf("scenarios missed a path: %d appends, %d rebuilds", appends, rebuilds)
	}
}

// FuzzSegmentCache is TestSegmentCacheChangedIndex under coverage
// guidance.
func FuzzSegmentCache(f *testing.F) {
	f.Add([]byte{5, 0, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 3, 4, 1, 6, 4, 9, 2, 5, 3, 1, 0, 8, 1})
	f.Add([]byte{1, 1, 6, 0, 0, 1, 1, 2, 2, 3, 3, 3, 2, 1, 5, 0, 3, 2, 7, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runSegScript(t, data)
	})
}

// TestBuilderGeneration: the generation is stable across append-only growth
// and bumps exactly when an out-of-order read forces a re-sort.
func TestBuilderGeneration(t *testing.T) {
	epc := epcgen2.EPC{1}
	b := NewBuilder()
	if b.Generation(epc) != 0 {
		t.Fatal("unseen tag has nonzero generation")
	}
	b.Add(reader.TagRead{EPC: epc, Time: 1, Phase: 1})
	b.Add(reader.TagRead{EPC: epc, Time: 2, Phase: 2})
	b.Profile(epc)
	if g := b.Generation(epc); g != 0 {
		t.Fatalf("in-order appends bumped generation to %d", g)
	}
	b.Add(reader.TagRead{EPC: epc, Time: 1.5, Phase: 3}) // out of order
	b.Profile(epc)                                       // triggers the lazy sort
	if g := b.Generation(epc); g != 1 {
		t.Fatalf("re-sort generation = %d, want 1", g)
	}
	b.Add(reader.TagRead{EPC: epc, Time: 9, Phase: 1})
	b.Profile(epc)
	if g := b.Generation(epc); g != 1 {
		t.Fatalf("append after sort bumped generation to %d", g)
	}
}

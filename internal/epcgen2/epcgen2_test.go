package epcgen2

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEPCRoundTrip(t *testing.T) {
	e := NewEPC(123456789)
	s := e.String()
	if len(s) != 24 {
		t.Fatalf("EPC hex length = %d, want 24", len(s))
	}
	back, err := ParseEPC(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("round trip mismatch: %v != %v", back, e)
	}
}

func TestParseEPCErrors(t *testing.T) {
	if _, err := ParseEPC("zz"); err == nil {
		t.Error("want error for non-hex")
	}
	if _, err := ParseEPC("3012"); err == nil {
		t.Error("want error for short EPC")
	}
	if _, err := ParseEPC(NewEPC(1).String() + "00"); err == nil {
		t.Error("want error for long EPC")
	}
}

func TestNewEPCDistinct(t *testing.T) {
	seen := map[EPC]bool{}
	for i := uint64(0); i < 1000; i++ {
		e := NewEPC(i)
		if seen[e] {
			t.Fatalf("duplicate EPC for serial %d", i)
		}
		seen[e] = true
	}
}

func TestRandomEPCDeterministic(t *testing.T) {
	a := RandomEPC(rand.New(rand.NewSource(1)))
	b := RandomEPC(rand.New(rand.NewSource(1)))
	if a != b {
		t.Error("RandomEPC not deterministic per seed")
	}
}

func TestEPCBit(t *testing.T) {
	var e EPC
	e[0] = 0x80 // bit 0 set
	e[1] = 0x01 // bit 15 set
	if e.Bit(0) != 1 {
		t.Error("bit 0")
	}
	if e.Bit(1) != 0 {
		t.Error("bit 1")
	}
	if e.Bit(15) != 1 {
		t.Error("bit 15")
	}
	if e.Bit(-1) != 0 || e.Bit(96) != 0 {
		t.Error("out-of-range bits should be 0")
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/GENIBUS ("123456789") = 0xD64E — poly 0x1021, init 0xFFFF,
	// complemented output, no reflection: exactly the C1G2 CRC.
	got := CRC16([]byte("123456789"))
	if got != 0xD64E {
		t.Errorf("CRC16 = %#04x, want 0xD64E", got)
	}
}

func TestCRC16Distinguishes(t *testing.T) {
	a := NewEPC(1).CRC16()
	b := NewEPC(2).CRC16()
	if a == b {
		t.Error("CRCs of different EPCs collide (suspicious for adjacent serials)")
	}
}

func TestTimingDefaultsValid(t *testing.T) {
	if err := DefaultTiming().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultTiming()
	bad.AckCmd = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero duration")
	}
}

func TestSlotDurationsOrdered(t *testing.T) {
	lt := DefaultTiming()
	if !(lt.EmptySlot() < lt.CollisionSlot() && lt.CollisionSlot() < lt.SuccessSlot()) {
		t.Errorf("slot durations out of order: %v %v %v",
			lt.EmptySlot(), lt.CollisionSlot(), lt.SuccessSlot())
	}
}

func TestAlohaSingleTag(t *testing.T) {
	a := NewAloha(0, DefaultTiming(), 1)
	r := a.Round(1)
	succ := successes(r)
	if len(succ) != 1 || succ[0].Tag != 0 {
		t.Fatalf("single tag round: %+v", succ)
	}
	if r.Duration <= 0 {
		t.Error("non-positive round duration")
	}
}

func TestAlohaAllTagsEventuallyRead(t *testing.T) {
	a := NewAloha(4, DefaultTiming(), 2)
	const n = 20
	seen := map[int]bool{}
	for round := 0; round < 200 && len(seen) < n; round++ {
		for _, ev := range successes(a.Round(n)) {
			seen[ev.Tag] = true
		}
	}
	if len(seen) != n {
		t.Errorf("only %d/%d tags read after 200 rounds", len(seen), n)
	}
}

func TestAlohaSlotAccounting(t *testing.T) {
	a := NewAloha(3, DefaultTiming(), 3)
	r := a.Round(10)
	if len(r.Slots) != 1<<uint(r.Q) {
		t.Fatalf("slots = %d, want %d", len(r.Slots), 1<<uint(r.Q))
	}
	// Starts are increasing, durations positive, and the round duration is
	// the end of the last slot.
	prevEnd := 0.0
	for i, s := range r.Slots {
		if s.Duration <= 0 {
			t.Fatalf("slot %d duration %v", i, s.Duration)
		}
		if i == 0 {
			prevEnd = s.Start + s.Duration
			continue
		}
		if s.Start < prevEnd-1e-12 {
			t.Fatalf("slot %d overlaps previous", i)
		}
		prevEnd = s.Start + s.Duration
	}
	if r.Duration < prevEnd-1e-12 {
		t.Errorf("round duration %v < last slot end %v", r.Duration, prevEnd)
	}
	// Success slots carry a tag; others carry -1.
	for _, s := range r.Slots {
		if (s.Outcome == SlotSuccess) != (s.Tag >= 0) {
			t.Errorf("slot outcome/tag mismatch: %+v", s)
		}
	}
}

func TestAlohaQAdaptsUp(t *testing.T) {
	// Q starts at 0 with many tags: constant collisions must push Q up.
	a := NewAloha(0, DefaultTiming(), 4)
	for i := 0; i < 30; i++ {
		a.Round(50)
	}
	if a.Q() < 3 {
		t.Errorf("Q did not adapt up: %d", a.Q())
	}
}

func TestAlohaQAdaptsDown(t *testing.T) {
	a := NewAloha(8, DefaultTiming(), 5)
	for i := 0; i < 50; i++ {
		a.Round(1)
	}
	if a.Q() > 3 {
		t.Errorf("Q did not adapt down: %d", a.Q())
	}
}

func TestAlohaZeroTags(t *testing.T) {
	a := NewAloha(2, DefaultTiming(), 6)
	r := a.Round(0)
	if len(successes(r)) != 0 {
		t.Error("successes with zero tags")
	}
}

func TestAlohaDeterministic(t *testing.T) {
	a1 := NewAloha(4, DefaultTiming(), 42)
	a2 := NewAloha(4, DefaultTiming(), 42)
	for i := 0; i < 10; i++ {
		r1, r2 := a1.Round(15), a2.Round(15)
		if len(r1.Slots) != len(r2.Slots) {
			t.Fatal("rounds diverged in slot count")
		}
		for j := range r1.Slots {
			if r1.Slots[j] != r2.Slots[j] {
				t.Fatal("rounds diverged")
			}
		}
	}
}

// Property: every ALOHA round reads each tag at most once.
func TestQuickAlohaNoDuplicateReads(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		a := NewAloha(4, DefaultTiming(), seed)
		r := a.Round(n)
		seen := map[int]bool{}
		for _, ev := range successes(r) {
			if ev.Tag < 0 || ev.Tag >= n || seen[ev.Tag] {
				return false
			}
			seen[ev.Tag] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTreeWalkIdentifiesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var epcs []EPC
	for i := 0; i < 50; i++ {
		epcs = append(epcs, RandomEPC(rng))
	}
	order, queries := TreeWalk(epcs)
	if len(order) != len(epcs) {
		t.Fatalf("identified %d/%d", len(order), len(epcs))
	}
	if queries < len(epcs) {
		t.Errorf("queries = %d, impossibly few", queries)
	}
	sorted := append([]int(nil), order...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("order is not a permutation: %v", order)
		}
	}
}

func TestTreeWalkOrderFollowsIDsNotPosition(t *testing.T) {
	// The Section 2.1 negative result: tree-walking order is the EPC
	// lexicographic order regardless of how the caller arranges tags.
	epcs := []EPC{NewEPC(300), NewEPC(100), NewEPC(200)}
	order, _ := TreeWalk(epcs)
	// Identification must be by ascending EPC: serial 100 (index 1),
	// 200 (index 2), 300 (index 0).
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTreeWalkEmpty(t *testing.T) {
	order, queries := TreeWalk(nil)
	if order != nil || queries != 0 {
		t.Errorf("empty walk = %v, %d", order, queries)
	}
}

func TestTreeWalkDuplicateEPCs(t *testing.T) {
	e := NewEPC(5)
	order, _ := TreeWalk([]EPC{e, e})
	if len(order) != 2 {
		t.Errorf("duplicate EPCs: order = %v", order)
	}
}

// Property: tree walk emits EPCs in lexicographic (big-endian bit) order.
func TestQuickTreeWalkSorted(t *testing.T) {
	f := func(serials []uint16) bool {
		if len(serials) == 0 || len(serials) > 30 {
			return true
		}
		seen := map[uint16]bool{}
		var epcs []EPC
		var vals []uint64
		for _, s := range serials {
			if seen[s] {
				continue
			}
			seen[s] = true
			epcs = append(epcs, NewEPC(uint64(s)))
			vals = append(vals, uint64(s))
		}
		order, _ := TreeWalk(epcs)
		for i := 1; i < len(order); i++ {
			if vals[order[i-1]] >= vals[order[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSlotOutcomeString(t *testing.T) {
	if SlotEmpty.String() != "empty" || SlotCollision.String() != "collision" ||
		SlotSuccess.String() != "success" || SlotOutcome(99).String() != "unknown" {
		t.Error("SlotOutcome.String broken")
	}
}

// successes returns the slots a round singulated a tag in, in slot order.
func successes(r RoundResult) []SlotEvent {
	var out []SlotEvent
	for _, s := range r.Slots {
		if s.Outcome == SlotSuccess {
			out = append(out, s)
		}
	}
	return out
}

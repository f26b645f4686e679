package epcgen2

import (
	"math"
	"math/rand"
)

// SlotOutcome classifies what happened in one ALOHA slot.
type SlotOutcome int

const (
	// SlotEmpty means no tag chose the slot.
	SlotEmpty SlotOutcome = iota
	// SlotCollision means two or more tags replied simultaneously.
	SlotCollision
	// SlotSuccess means exactly one tag was singulated and read.
	SlotSuccess
)

// String implements fmt.Stringer.
func (o SlotOutcome) String() string {
	switch o {
	case SlotEmpty:
		return "empty"
	case SlotCollision:
		return "collision"
	case SlotSuccess:
		return "success"
	default:
		return "unknown"
	}
}

// SlotEvent is one slot of an inventory round.
type SlotEvent struct {
	// Outcome classifies the slot.
	Outcome SlotOutcome
	// Tag is the index (into the round's tag list) of the singulated tag
	// for SlotSuccess; -1 otherwise.
	Tag int
	// Start is the slot's start offset from the beginning of the round, in
	// seconds; Duration is the slot length.
	Start, Duration float64
}

// RoundResult summarizes one inventory round.
type RoundResult struct {
	// Q is the Q value the round was issued with.
	Q int
	// Slots are the per-slot events in order.
	Slots []SlotEvent
	// Duration is the total round duration including the Query command.
	Duration float64
}

// Aloha is a frame-slotted ALOHA inventory engine with the standard C1G2
// Q-adaptation algorithm: the floating-point Qfp is nudged up on collisions
// and down on empties, and each round is issued with Q = round(Qfp).
type Aloha struct {
	// Timing is the link timing used to compute slot durations.
	Timing LinkTiming
	// QStep is the Qfp adjustment per collision/empty slot (0.1–0.5 per the
	// standard; C is typically larger for small Q).
	QStep float64
	// MinQ and MaxQ clamp the adapted Q.
	MinQ, MaxQ int

	qfp float64
	rng *rand.Rand
}

// NewAloha constructs an inventory engine with an initial Q and its own
// deterministic random source.
func NewAloha(initialQ int, timing LinkTiming, seed int64) *Aloha {
	a := &Aloha{
		Timing: timing,
		QStep:  0.35,
		MinQ:   0,
		MaxQ:   15,
		qfp:    float64(initialQ),
		rng:    rand.New(rand.NewSource(seed)),
	}
	a.clampQ()
	return a
}

func (a *Aloha) clampQ() {
	a.qfp = math.Max(float64(a.MinQ), math.Min(float64(a.MaxQ), a.qfp))
}

// Q returns the Q value the next round will be issued with.
func (a *Aloha) Q() int { return int(math.Round(a.qfp)) }

// Round simulates one inventory round over n tags that are currently able
// to respond (in the reading zone and above sensitivity). Tag indices in
// the result refer to 0..n-1 in the caller's ordering. The engine adapts Q
// for subsequent rounds.
//
// Per C1G2, each tag draws a uniform slot counter in [0, 2^Q). The reader
// then steps through the 2^Q slots with QueryRep commands.
func (a *Aloha) Round(n int) RoundResult {
	q := a.Q()
	numSlots := 1 << uint(q)
	res := RoundResult{Q: q, Duration: a.Timing.QueryCmd}

	// Assign slots.
	slotOf := make([]int, n)
	counts := make([]int, numSlots)
	for i := 0; i < n; i++ {
		s := a.rng.Intn(numSlots)
		slotOf[i] = s
		counts[s]++
	}
	// Map slot -> single occupant for singleton slots.
	occupant := make([]int, numSlots)
	for i := range occupant {
		occupant[i] = -1
	}
	for i := 0; i < n; i++ {
		if counts[slotOf[i]] == 1 {
			occupant[slotOf[i]] = i
		}
	}

	collisions, empties := 0, 0
	t := res.Duration
	for s := 0; s < numSlots; s++ {
		ev := SlotEvent{Start: t, Tag: -1}
		switch {
		case counts[s] == 0:
			ev.Outcome = SlotEmpty
			ev.Duration = a.Timing.EmptySlot()
			empties++
		case counts[s] == 1:
			ev.Outcome = SlotSuccess
			ev.Tag = occupant[s]
			ev.Duration = a.Timing.SuccessSlot()
		default:
			ev.Outcome = SlotCollision
			ev.Duration = a.Timing.CollisionSlot()
			collisions++
		}
		t += ev.Duration
		res.Slots = append(res.Slots, ev)
	}
	res.Duration = t

	// Q adaptation: one aggregate update per round, bounded to ±1 so large
	// frames (hundreds of empty slots) cannot slam Qfp across its range and
	// oscillate.
	delta := a.QStep * (float64(collisions) - 0.5*float64(empties))
	if delta > 1 {
		delta = 1
	} else if delta < -1 {
		delta = -1
	}
	a.qfp += delta
	a.clampQ()
	return res
}

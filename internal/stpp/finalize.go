package stpp

import (
	"fmt"
	"math"
)

// FinalizePolicy decides when a tag's pass is *conclusive*: its V-zone
// center sits strictly behind the stream frontier by at least Margin
// seconds AND the tag's phase power has been quiet — no reads at all — for
// at least After seconds. A conclusive tag will never change its X key
// again (no further reads can arrive for it without violating the policy's
// precondition), so the engine may emit it to the ordered output stream
// and evict its profile, detection state and aligner decisions.
//
// Correctness precondition: After must exceed the longest mid-pass read
// gap the workload can produce — on a sharded deployment that includes the
// transit time between consecutive reader zones — and Margin must exceed
// the out-of-order timestamp jitter. Under that precondition a read
// arriving for an already-finalized tag is genuinely late (the physical
// pass is over) and is counted and dropped rather than re-opening the tag.
//
// Both thresholds compare read-clock seconds, and only ever as differences
// against the frontier, so the policy is shift-invariant: a sharded
// deployment can evaluate it on each reader's local clock and on the
// re-based global clock and get consistent answers.
type FinalizePolicy struct {
	// After is the quiet gap in seconds: a tag is only conclusive once
	// frontier − lastRead ≥ After. Zero disables finalization entirely.
	After float64
	// Margin is how far (seconds) the V-zone center must sit behind the
	// frontier. It guards against declaring a pass over while the valley
	// is still forming at the edge of the profile.
	Margin float64
}

// Enabled reports whether the policy finalizes at all.
func (p FinalizePolicy) Enabled() bool { return p.After > 0 }

// Validate reports policy errors. Non-finite values are rejected the same
// way Config.Validate rejects them: a NaN threshold makes every comparison
// false and silently disables (or worse, scrambles) finalization.
func (p FinalizePolicy) Validate() error {
	if p.After == 0 && p.Margin == 0 {
		return nil // disabled
	}
	if !(p.After > 0) || math.IsInf(p.After, 1) {
		return fmt.Errorf("stpp: finalize-after %v not in (0, +Inf)", p.After)
	}
	if !(p.Margin >= 0) || math.IsInf(p.Margin, 1) {
		return fmt.Errorf("stpp: finalize margin %v not in [0, +Inf)", p.Margin)
	}
	return nil
}

// Conclusive reports whether a tag's pass is over under this policy given
// the stream frontier (the maximum read time consumed so far, across all
// tags). The decision is monotone in the frontier for a frozen profile:
// once conclusive, a tag stays conclusive as the frontier advances.
func (p FinalizePolicy) Conclusive(tr TagResult, frontier float64) bool {
	if !p.Enabled() || tr.Err != nil || tr.Profile == nil || tr.Profile.Len() == 0 {
		return false
	}
	last := tr.Profile.Times[tr.Profile.Len()-1]
	if !(last+p.After <= frontier) {
		return false
	}
	mid := (tr.VZone.Start + tr.VZone.End) / 2
	if mid < 0 || mid >= tr.Profile.Len() {
		return false
	}
	return tr.Profile.Times[mid]+p.Margin <= frontier
}

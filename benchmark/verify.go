package main

import (
	"fmt"
	"slices"

	"repro/internal/deploy"
	"repro/internal/phys"
	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/trace"
)

// stppdConfig is the base STPP configuration stppd runs with its default
// -channel 6 and -w 5; the reference replay must run the same one.
func stppdConfig() stpp.Config {
	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(6))
	cfg.Window = 5
	return cfg
}

// newEngine builds the sharded engine stppd builds for a session header.
func newEngine(h trace.Header, policy stpp.FinalizePolicy) (*deploy.ShardedEngine, error) {
	return deploy.NewSharded(deploy.FromHeader(h, stppdConfig(), false, false), deploy.Options{Finalize: policy})
}

// refResult is the offline answer a daemon session must reproduce.
type refResult struct {
	x, y []string
}

// verifier holds a daemon's final orders to the offline replay of the
// reads it acknowledged, under the daemon's own finalize policy: with the
// lifecycle on, finalized tags lead the X order in emission order and
// leave the Y order, so a replay without the policy disagrees with a
// correct daemon. The replay also runs the lifecycle sweep where the
// daemon does — after the POST that brings a publish interval's worth of
// reads — because a straggler read that reaches a tag after its quiet gap
// is consumed or dropped as late depending on whether a sweep finalized
// the tag first.
type verifier struct {
	policy stpp.FinalizePolicy
	batch  int // reads per POST
	cache  map[refKey]*refResult
}

type refKey struct {
	in    *traceInput
	reads int
}

func newVerifier(policy stpp.FinalizePolicy, batch int) *verifier {
	return &verifier{policy: policy, batch: batch, cache: map[refKey]*refResult{}}
}

// reference replays the first n reads of in through the deploy.FromHeader
// and ShardedEngine path stppd runs.
func (v *verifier) reference(in *traceInput, n int) (*refResult, error) {
	key := refKey{in, n}
	if r, ok := v.cache[key]; ok {
		return r, nil
	}
	se, err := newEngine(in.hdr, v.policy)
	if err != nil {
		return nil, err
	}
	defer se.Close()
	reads := in.reads[:n]
	since := 0
	for start := 0; start < len(reads); start += v.batch {
		end := min(start+v.batch, len(reads))
		if err := se.Consume(reads[start:end]); err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		if since += end - start; since >= publishEvery {
			since = 0
			se.Snapshot() // a periodic publish; "no profiles yet" is fine
		}
	}
	res, err := se.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("reference replay of %d reads: %w", n, err)
	}
	r := &refResult{x: trace.EncodeEPCs(res.XOrder), y: trace.EncodeEPCs(res.YOrder)}
	v.cache[key] = r
	return r, nil
}

// check verifies a daemon's final answer for a session that was sent the
// first n reads of in, returning the Kendall τ of its X order.
func (v *verifier) check(final *serve.OrderResponse, in *traceInput, n int) (float64, error) {
	want, err := v.reference(in, n)
	if err != nil {
		return 0, err
	}
	switch {
	case !final.Final:
		return 0, fmt.Errorf("session %s: answer is not final", final.SessionID)
	case final.Reads != int64(n):
		return 0, fmt.Errorf("session %s: daemon consumed %d reads, sent %d", final.SessionID, final.Reads, n)
	case !slices.Equal(final.XOrder, want.x):
		return 0, fmt.Errorf("session %s: X order diverged from the offline replay of %d reads", final.SessionID, n)
	case !slices.Equal(final.YOrder, want.y):
		return 0, fmt.Errorf("session %s: Y order diverged from the offline replay of %d reads", final.SessionID, n)
	}
	return kendallTau(final.XOrder, trace.EncodeEPCs(in.truthX)), nil
}

// kendallTau scores order against truth over the tags present in both:
// 1 is the truth's order, −1 its reverse.
func kendallTau(order, truth []string) float64 {
	rank := make(map[string]int, len(truth))
	for i, e := range truth {
		rank[e] = i
	}
	var ranks []int
	for _, e := range order {
		if r, ok := rank[e]; ok {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) < 2 {
		return 1
	}
	var concordant, discordant int
	for i := range ranks {
		for j := i + 1; j < len(ranks); j++ {
			if ranks[i] < ranks[j] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	return float64(concordant-discordant) / float64(concordant+discordant)
}

package deploy

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/epcgen2"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/stpp"
)

// Lifecycle thresholds for the portal-belt workload: a bag's pass through
// both portals is one continuous ~15s hot span with intra-pass gaps under
// ~0.1s, and once a bag clears the last portal it never reads again, so
// After=2s only marks truly-finished passes; Margin=1s absorbs jitter
// around the V-zone centers.
const portalAfter, portalMargin = 2.0, 1.0

func portalPolicy() stpp.FinalizePolicy {
	return stpp.FinalizePolicy{After: portalAfter, Margin: portalMargin}
}

// portalBelt is the multi-zone churn workload: bags ride one belt through
// two sequential portal zones, entering, passing both readers, and going
// quiet one after another — the deployment the cross-shard lifecycle
// exists for. Every bag is an overlap tag (read by both portals), so the
// every-zone-agrees rule is exercised by every single finalization. Bag
// spacing is wide enough that a bag bottoms out at a portal before the
// next bag enters that portal's read zone, which the emission barrier
// requires to let finalized bags flow out mid-stream.
func portalBelt(t *testing.T) (Deployment, []reader.TagRead) {
	t.Helper()
	m, err := scenario.AirportPortals(scenario.PortalsOpts{
		Portals: 2, Bags: 10, PortalGap: 2.0,
		MinSpacing: 1.5, MaxSpacing: 1.9, BeltSpeed: 0.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return Of(m), reads
}

// runShardedLifecycle replays reads through a lifecycle deployment under a
// random schedule of batch sizes, snapshot points and checkpoint points;
// with crash set, every checkpoint also simulates a crash — the blob
// restores into a brand-new sharded engine which carries on. At every
// observation point it asserts the emitted stream only ever grew. It
// returns the final emitted stream, final global snapshot and late-read
// count.
func runShardedLifecycle(t *testing.T, d Deployment, reads []reader.TagRead, rng *rand.Rand, crash bool) ([]EmittedTag, *GlobalResult, int64) {
	t.Helper()
	opts := Options{Group: widthGroup(t, 1+rng.Intn(4)), Finalize: portalPolicy()}
	se, err := NewSharded(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []EmittedTag
	checkPrefix := func() {
		t.Helper()
		em := se.Emitted()
		if len(em) < len(prefix) {
			t.Fatalf("emitted stream shrank: %d -> %d entries", len(prefix), len(em))
		}
		for i := range prefix {
			if prefix[i] != em[i] {
				t.Fatalf("emitted entry %d changed: %+v -> %+v", i, prefix[i], em[i])
			}
		}
		prefix = append(prefix[:0], em...)
	}
	pos := 0
	for pos < len(reads) {
		n := 1 + rng.Intn(120)
		if pos+n > len(reads) {
			n = len(reads) - pos
		}
		if err := se.Consume(reads[pos : pos+n]); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		pos += n
		if rng.Float64() < 0.25 {
			if _, err := se.Snapshot(); err != nil {
				t.Fatalf("pos %d: %v", pos, err)
			}
			checkPrefix()
		}
		if rng.Float64() < 0.15 {
			blob := se.Checkpoint(nil)
			checkPrefix()
			if crash {
				fresh, err := NewSharded(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Restore(blob); err != nil {
					t.Fatalf("pos %d: restore: %v", pos, err)
				}
				se = fresh
				checkPrefix()
			}
		}
	}
	gr, err := se.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	checkPrefix()
	return append([]EmittedTag(nil), se.Emitted()...), gr, se.LateReads()
}

// TestShardedLifecycleEmittedPrefixProperty pins the cross-shard lifecycle:
// over randomized portal-belt replays, a finalized bag's emitted position
// (and frozen X key) is identical across (a) a never-finalizing sharded
// replay, (b) finalize+evict runs under any batch sizes and
// snapshot/checkpoint cadences, and (c) runs crash-restored from
// checkpoints at arbitrary points. The emitted stream must be a strict
// prefix of the never-finalizing stitched global order, and the emitted
// prefix plus the re-based active stitch must reproduce that order exactly
// — evicting a bag from every shard pays nothing in global accuracy.
func TestShardedLifecycleEmittedPrefixProperty(t *testing.T) {
	d, reads := portalBelt(t)

	ref, err := NewSharded(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ref.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}
	batchX := batch.XOrder
	// The key a lifecycle run freezes for a bag is its min-bottom holder's
	// re-based X key; recover the same from the batch per-shard results.
	batchKey := make(map[epcgen2.EPC]stpp.XKey, len(batchX))
	for _, sr := range batch.Shards {
		if sr.Result == nil {
			continue
		}
		for _, tr := range sr.Result.Tags {
			if tr.Err != nil {
				continue
			}
			if k, ok := batchKey[tr.EPC]; !ok || tr.X.BottomTime < k.BottomTime {
				batchKey[tr.EPC] = tr.X
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	var want []EmittedTag
	for trial := 0; trial < 6; trial++ {
		crash := trial%2 == 1
		em, gr, late := runShardedLifecycle(t, d, reads, rng, crash)
		if late != 0 {
			t.Fatalf("trial %d: %d late reads on a workload that honors the gap precondition", trial, late)
		}
		if trial == 0 {
			if len(em) == 0 {
				t.Fatal("portal belt finalized nothing — the cross-shard lifecycle went unexercised")
			}
			if len(em) == len(batchX) {
				t.Fatal("every bag finalized — the active-suffix path went unexercised")
			}
			want = em
		} else if !reflect.DeepEqual(em, want) {
			t.Fatalf("trial %d (crash=%v): emitted stream diverged across schedules:\n  ref %v\n  got %v",
				trial, crash, want, em)
		}
		for i, e := range em {
			if e.EPC != batchX[i] {
				t.Fatalf("trial %d: emitted[%d] = %s, batch global order has %s", trial, i, e.EPC, batchX[i])
			}
			if e.X != batchKey[e.EPC] {
				t.Fatalf("trial %d: emitted[%d] X key %+v, batch computed %+v — eviction changed a frozen key",
					trial, i, e.X, batchKey[e.EPC])
			}
		}
		if !reflect.DeepEqual(gr.XOrder, batchX) {
			t.Fatalf("trial %d: emitted prefix ++ active stitch diverged from batch global order:\n  batch %v\n  got   %v",
				trial, batchX, gr.XOrder)
		}
	}
}

// TestShardedLifecycleDisabledIsInert: the zero policy must leave the
// sharded engine byte-identical to the pre-lifecycle engine — no emission,
// no late-read accounting, no extra checkpoint state beyond the version's
// empty lifecycle sections.
func TestShardedLifecycleDisabledIsInert(t *testing.T) {
	d, reads := portalBelt(t)
	se, err := NewSharded(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := se.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(se.Emitted()); n != 0 {
		t.Fatalf("disabled lifecycle emitted %d tags", n)
	}
	if n := se.LateReads(); n != 0 {
		t.Fatalf("disabled lifecycle counted %d late reads", n)
	}
	if got.Emitted != nil {
		t.Fatal("disabled lifecycle published an emission stream")
	}
	fresh, err := NewSharded(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}
	sameGlobal(t, want, got)
}

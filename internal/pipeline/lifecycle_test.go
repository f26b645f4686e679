// The lifecycle's admission path lives in the Engine, but emission and
// eviction belong to deploy.ShardedEngine, the one lifecycle coordinator.
// These properties therefore run the engine the way stppd does — as the
// single shard of a one-reader deployment — which deploy imports pipeline
// to build, hence the external test package.
package pipeline_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/deploy"
	"repro/internal/epcgen2"
	"repro/internal/pipeline"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/stpp"
)

// Lifecycle thresholds for the churn workload: the belt feeds a tag every
// ~1.8s (0.55m gap at 0.3 m/s) and a tag's own pass never goes quiet for
// 2s mid-read, so After=2s marks a tag final only once its pass is truly
// over; Margin=1s absorbs timestamp jitter around the V-zone center.
const lifecycleAfter, lifecycleMargin = 2.0, 1.0

func lifecyclePolicy() stpp.FinalizePolicy {
	return stpp.FinalizePolicy{After: lifecycleAfter, Margin: lifecycleMargin}
}

// churnReads returns the endless-belt churn workload: tags entering,
// passing and leaving the read zone one after another — the scene the
// finalize-and-evict lifecycle exists for.
func churnReads(t *testing.T) (*scenario.Scene, []reader.TagRead) {
	t.Helper()
	s, err := scenario.ConveyorChurn(12, 0.55, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, reads
}

// oneReader builds the one-reader deployment stppd runs for a trace
// without reader metadata.
func oneReader(t *testing.T, s *scenario.Scene, opts deploy.Options) *deploy.ShardedEngine {
	t.Helper()
	se, err := deploy.NewSharded(deploy.Deployment{Readers: []deploy.ReaderSpec{{ID: 0, Config: s.STPPConfig()}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// runLifecycle replays reads through a lifecycle deployment under a random
// schedule of batch sizes, snapshot points and checkpoint points; with
// crash set, every checkpoint also simulates a crash — the blob restores
// into a brand-new deployment which carries on. At every observation point
// it asserts the emitted stream only ever grew (prefix immutability within
// the run). It returns the final emitted stream, final global snapshot and
// late-read count.
func runLifecycle(t *testing.T, s *scenario.Scene, reads []reader.TagRead, rng *rand.Rand, crash bool) ([]deploy.EmittedTag, *deploy.GlobalResult, int64) {
	t.Helper()
	opts := deploy.Options{Group: pipeline.WidthGroup(t, 1+rng.Intn(4)), Finalize: lifecyclePolicy()}
	se := oneReader(t, s, opts)
	var prefix []deploy.EmittedTag
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
		n := 1 + rng.Intn(97)
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
				fresh := oneReader(t, s, opts)
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
	return append([]deploy.EmittedTag(nil), se.Emitted()...), gr, se.LateReads()
}

// TestLifecycleEmittedPrefixProperty is the lifecycle's correctness pin:
// over randomized churn replays, a finalized tag's emitted position (and
// frozen X key) is identical across (a) a never-finalizing batch replay,
// (b) finalize+evict runs under any batch sizes and snapshot/checkpoint
// cadences, and (c) runs crash-restored from checkpoints at arbitrary
// points. The emitted stream must be a strict prefix of the batch X order
// with byte-identical keys — evicting pays nothing in accuracy — and the
// emitted prefix plus the active suffix must reproduce the batch order
// exactly.
func TestLifecycleEmittedPrefixProperty(t *testing.T) {
	s, reads := churnReads(t)
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	batchX := batch.XOrderEPCs()
	batchKey := make(map[epcgen2.EPC]stpp.XKey, len(batch.Tags))
	for _, tr := range batch.Tags {
		batchKey[tr.EPC] = tr.X
	}

	rng := rand.New(rand.NewSource(99))
	var ref []deploy.EmittedTag
	for trial := 0; trial < 8; trial++ {
		crash := trial%2 == 1
		em, gr, late := runLifecycle(t, s, reads, rng, crash)
		if late != 0 {
			t.Fatalf("trial %d: %d late reads on a workload that honors the gap precondition", trial, late)
		}
		if trial == 0 {
			if len(em) == 0 {
				t.Fatal("churn scene finalized nothing — the lifecycle went unexercised")
			}
			if len(em) == len(batchX) {
				t.Fatal("every tag finalized — the active-suffix path went unexercised")
			}
			ref = em
		} else if !reflect.DeepEqual(em, ref) {
			t.Fatalf("trial %d (crash=%v): emitted stream diverged across schedules:\n  ref %v\n  got %v",
				trial, crash, ref, em)
		}
		for i, e := range em {
			if e.EPC != batchX[i] {
				t.Fatalf("trial %d: emitted[%d] = %s, batch order has %s", trial, i, e.EPC, batchX[i])
			}
			if e.X != batchKey[e.EPC] {
				t.Fatalf("trial %d: emitted[%d] X key %+v, batch computed %+v — eviction changed a frozen key",
					trial, i, e.X, batchKey[e.EPC])
			}
		}
		if !reflect.DeepEqual(gr.XOrder, batchX) {
			t.Fatalf("trial %d: emitted prefix ++ active suffix diverged from batch X order:\n  batch %v\n  got   %v",
				trial, batchX, gr.XOrder)
		}
	}
}

// TestLifecycleDiscardUnorderable: a tag the detector can never order — a
// handful of reads far sparser than MinVZoneSamples — must not block the
// emission barrier forever. Its first read precedes every later tag's
// bottom, so without the discard path it would hold emission (and the
// memory behind it) for the rest of the stream. Once its profile lapses
// quiet the coordinator discards it: evicted without emission, counted,
// and invisible to every orderable tag — batch assembly sorts erred tags
// to the unordered NaN tail of the X order, so emitted prefix ++ active
// suffix still reproduces the orderable prefix of a batch replay over the
// exact same reads.
func TestLifecycleDiscardUnorderable(t *testing.T) {
	s, reads := churnReads(t)
	ghost := epcgen2.NewEPC(0xBEEF)
	for i, dt := range []float64{0, 0.2, 0.4} {
		reads = append(reads, reader.TagRead{
			EPC: ghost, Time: 5.0 + dt, Phase: 1.0 + 0.1*float64(i), RSSI: -60,
		})
	}
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].Time < reads[j].Time })

	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	erred := make(map[epcgen2.EPC]bool)
	for _, tr := range batch.Tags {
		if tr.Err != nil {
			erred[tr.EPC] = true
		}
	}
	if !erred[ghost] {
		t.Fatal("ghost tag detected cleanly — the scenario no longer exercises the discard path")
	}
	// The orderable prefix: erred tags carry NaN X keys and sort last, so
	// filtering them strips exactly the unordered tail.
	var batchX []epcgen2.EPC
	for _, epc := range batch.XOrderEPCs() {
		if !erred[epc] {
			batchX = append(batchX, epc)
		}
	}

	se := oneReader(t, s, deploy.Options{Finalize: lifecyclePolicy()})
	for pos := 0; pos < len(reads); pos += 200 {
		n := min(200, len(reads)-pos)
		if err := se.Consume(reads[pos : pos+n]); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if _, err := se.Snapshot(); err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
	}
	if got := se.Discarded(); got != 1 {
		t.Fatalf("discarded %d tags, want exactly the ghost", got)
	}
	if len(se.Emitted()) == 0 {
		t.Fatal("nothing emitted — the ghost wedged the barrier despite the discard path")
	}
	gr, err := se.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gr.XOrder, batchX) {
		t.Fatalf("emitted prefix ++ active suffix diverged from batch X order:\n  batch %v\n  got   %v", batchX, gr.XOrder)
	}
	if se.LateReads() != 0 {
		t.Fatalf("%d late reads; the ghost's reads all precede its discard", se.LateReads())
	}
}

// TestLifecycleDisabledIsInert: the zero policy must leave the engine
// byte-identical to the pre-lifecycle engine — no frontier tracking, no
// emission, no late-read accounting, Consume stays the cheap bulk append —
// both on its own and as a deployment's shard.
func TestLifecycleDisabledIsInert(t *testing.T) {
	s, reads := churnReads(t)
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := loc.LocalizeReads(reads)
	if err != nil {
		t.Fatal(err)
	}
	eng := pipeline.NewFromLocalizer(loc, pipeline.Options{})
	got, err := eng.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}
	if f := eng.Frontier(); f != 0 {
		t.Fatalf("disabled lifecycle tracked frontier %v", f)
	}
	pipeline.SameResult(t, want, got)

	se := oneReader(t, s, deploy.Options{})
	gr, err := se.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Emitted != nil || len(se.Emitted()) != 0 {
		t.Fatalf("disabled lifecycle emitted %d tags", len(se.Emitted()))
	}
	if n := se.LateReads(); n != 0 {
		t.Fatalf("disabled lifecycle counted %d late reads", n)
	}
	pipeline.SameResult(t, want, gr.Shards[0].Result)
}

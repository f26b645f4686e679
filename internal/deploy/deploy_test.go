package deploy

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/epcgen2"
	"repro/internal/pipeline"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stpp"
	"repro/internal/trace"
)

// widthGroup returns a group on a private scheduler of the given width,
// stopped when the test ends, so a test can vary the pool width the
// deployment's fan-out runs on.
func widthGroup(tb testing.TB, width int) *sched.Group {
	s := sched.New(width)
	tb.Cleanup(s.Stop)
	return s.NewGroup("test")
}

// sameResult asserts byte-identical localization outcomes (mirrors the
// pipeline equivalence helper): both orders, and per-tag EPC, V-zone, X/Y
// keys and error text.
func sameResult(t *testing.T, want, got *stpp.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.XOrder, got.XOrder) {
		t.Errorf("X order diverged:\n  plain   %v\n  sharded %v", want.XOrder, got.XOrder)
	}
	if !reflect.DeepEqual(want.YOrder, got.YOrder) {
		t.Errorf("Y order diverged:\n  plain   %v\n  sharded %v", want.YOrder, got.YOrder)
	}
	if len(want.Tags) != len(got.Tags) {
		t.Fatalf("tag count %d vs %d", len(got.Tags), len(want.Tags))
	}
	for i := range want.Tags {
		w, g := want.Tags[i], got.Tags[i]
		if w.EPC != g.EPC {
			t.Errorf("tag %d: EPC %s vs %s", i, g.EPC, w.EPC)
		}
		if w.VZone != g.VZone {
			t.Errorf("tag %d: V-zone %+v vs %+v", i, g.VZone, w.VZone)
		}
		if !xKeyEqual(w.X, g.X) {
			t.Errorf("tag %d: X key %+v vs %+v", i, g.X, w.X)
		}
		if w.Y != g.Y {
			t.Errorf("tag %d: Y key %+v vs %+v", i, g.Y, w.Y)
		}
		werr, gerr := "", ""
		if w.Err != nil {
			werr = w.Err.Error()
		}
		if g.Err != nil {
			gerr = g.Err.Error()
		}
		if werr != gerr {
			t.Errorf("tag %d: err %q vs %q", i, gerr, werr)
		}
	}
}

func xKeyEqual(a, b stpp.XKey) bool {
	if math.IsNaN(a.BottomTime) || math.IsNaN(b.BottomTime) {
		return math.IsNaN(a.BottomTime) == math.IsNaN(b.BottomTime)
	}
	return a == b
}

// TestSingleReaderMatchesEngine: a one-reader ShardedEngine fed the read
// log in chunks — with intermediate snapshots — must produce byte-identical
// results to the plain pipeline.Engine (which is itself equivalence-tested
// against the batch stpp.Localizer), and its stitched global orders must be
// exactly the shard's own orders.
func TestSingleReaderMatchesEngine(t *testing.T) {
	s, err := scenario.ConveyorPopulation(8, 0.3, 23)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.STPPConfig()

	plain, err := pipeline.New(cfg, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(Deployment{Readers: []ReaderSpec{
		{ID: 0, Zone: Zone{XMin: -2, XMax: 2}, Config: cfg},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(reads); start += 17 {
		end := start + 17
		if end > len(reads) {
			end = len(reads)
		}
		plain.Consume(reads[start:end])
		if err := sharded.Consume(reads[start:end]); err != nil {
			t.Fatal(err)
		}
		if start%51 == 0 {
			if _, err := plain.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if _, err := sharded.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 1 || got.Shards[0].Result == nil {
		t.Fatalf("sharded result = %+v", got)
	}
	if plain.Reads() != int64(len(reads)) || sharded.Reads() != int64(len(reads)) {
		t.Errorf("read counters: plain %d, sharded %d, want %d", plain.Reads(), sharded.Reads(), len(reads))
	}
	sameResult(t, want, got.Shards[0].Result)
	if !reflect.DeepEqual(got.XOrder, want.XOrderEPCs()) {
		t.Errorf("global X order %v != shard X order %v", got.XOrder, want.XOrderEPCs())
	}
	if !reflect.DeepEqual(got.YOrder, want.YOrderEPCs()) {
		t.Errorf("global Y order %v != shard Y order %v", got.YOrder, want.YOrderEPCs())
	}
}

// TestAisleStitchRecoversTruth: the two-reader warehouse aisle, streamed
// live through the sharded engine with intermediate snapshots, must
// recover the full ground-truth X order across both zones — including the
// overlap tags read by both readers.
func TestAisleStitchRecoversTruth(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(seed))
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewSharded(Of(ms), Options{})
		if err != nil {
			t.Fatal(err)
		}
		batches, snapshots := 0, 0
		err = ms.Stream(func(batch []reader.TagRead) bool {
			if err := se.Consume(batch); err != nil {
				t.Fatal(err)
			}
			batches++
			if batches%40 == 0 {
				if _, err := se.Snapshot(); err == nil {
					snapshots++
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if snapshots == 0 {
			t.Error("no intermediate snapshots succeeded")
		}
		gr, err := se.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// Both zones must have localized, and the overlap band must be
		// non-empty: together the shards hold more profiles than there are
		// tags.
		perShard := 0
		for _, sh := range gr.Shards {
			if sh.Result == nil {
				t.Fatalf("seed %d: shard %d saw no reads", seed, sh.ReaderID)
			}
			perShard += len(sh.Result.Tags)
		}
		if perShard <= ms.Tags() {
			t.Errorf("seed %d: no overlap tags (%d profiles for %d tags)", seed, perShard, ms.Tags())
		}
		if !reflect.DeepEqual(gr.XOrder, ms.TruthX) {
			t.Errorf("seed %d: stitched X order %v != truth %v", seed, gr.XOrder, ms.TruthX)
		}
	}
}

// TestPortalsStitchRecoversTruth: the multi-portal airport belt — every
// bag passes every portal — must stitch the per-portal orders back into
// the full belt order.
func TestPortalsStitchRecoversTruth(t *testing.T) {
	for _, seed := range []int64{1, 4} {
		ms, err := scenario.AirportPortals(scenario.DefaultPortalsOpts(8, seed))
		if err != nil {
			t.Fatal(err)
		}
		reads, err := ms.Run()
		if err != nil {
			t.Fatal(err)
		}
		se, err := NewSharded(Of(ms), Options{})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := se.Localize(reads)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gr.XOrder, ms.TruthX) {
			t.Errorf("seed %d: stitched X order %v != truth %v", seed, gr.XOrder, ms.TruthX)
		}
	}
}

// TestClockOffsetRebase: reads recorded on a reader's local clock, with
// the offset declared in its spec, must produce the same global orders as
// the same reads on the global clock — and the shard's X keys must come
// back re-based onto the global clock.
func TestClockOffsetRebase(t *testing.T) {
	const offset = 2.5
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}

	base, err := NewSharded(Of(ms), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}

	// Reader 1's reads shifted onto its local clock, its spec declaring
	// the offset.
	local := append([]reader.TagRead(nil), reads...)
	for i := range local {
		if local[i].Reader == 1 {
			local[i].Time -= offset
		}
	}
	d := Of(ms)
	for i := range d.Readers {
		if d.Readers[i].ID == 1 {
			d.Readers[i].ClockOffset = offset
		}
	}
	shifted, err := NewSharded(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := shifted.Localize(local)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.XOrder, want.XOrder) {
		t.Errorf("X order diverged under clock offset:\n  global %v\n  local  %v", want.XOrder, got.XOrder)
	}
	if !reflect.DeepEqual(got.YOrder, want.YOrder) {
		t.Errorf("Y order diverged under clock offset")
	}
	// Shard 1's bottom times must be back on the global clock.
	wantBT := bottomTimes(t, want, 1)
	gotBT := bottomTimes(t, got, 1)
	for epc, w := range wantBT {
		g, ok := gotBT[epc]
		if !ok {
			t.Errorf("tag %s missing from shifted shard", epc)
			continue
		}
		if math.Abs(g-w) > 1e-6 {
			t.Errorf("tag %s: bottom time %v, want %v (Δ=%g)", epc, g, w, g-w)
		}
	}
}

// bottomTimes collects EPC → fitted bottom time for one shard's located
// tags.
func bottomTimes(t *testing.T, gr *GlobalResult, readerID int) map[epcgen2.EPC]float64 {
	t.Helper()
	for _, sh := range gr.Shards {
		if sh.ReaderID != readerID {
			continue
		}
		if sh.Result == nil {
			t.Fatalf("shard %d has no result", readerID)
		}
		out := make(map[epcgen2.EPC]float64)
		for _, tag := range sh.Result.Tags {
			if tag.Err == nil {
				out[tag.EPC] = tag.X.BottomTime
			}
		}
		return out
	}
	t.Fatalf("no shard %d", readerID)
	return nil
}

// TestConsumeUnknownReader: a read stamped with an ID outside the
// deployment is an error, not silent misrouting.
func TestConsumeUnknownReader(t *testing.T) {
	s, err := scenario.ConveyorPopulation(2, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSharded(Deployment{Readers: []ReaderSpec{
		{ID: 0, Config: s.STPPConfig()},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Consume([]reader.TagRead{{Reader: 7}}); err == nil {
		t.Error("unknown reader ID accepted")
	}
}

// TestDeploymentValidate: structural errors are rejected at construction.
func TestDeploymentValidate(t *testing.T) {
	s, err := scenario.ConveyorPopulation(2, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.STPPConfig()
	if _, err := NewSharded(Deployment{}, Options{}); err == nil {
		t.Error("empty deployment accepted")
	}
	if _, err := NewSharded(Deployment{Readers: []ReaderSpec{
		{ID: 1, Config: cfg}, {ID: 1, Config: cfg},
	}}, Options{}); err == nil {
		t.Error("duplicate reader IDs accepted")
	}
	if _, err := NewSharded(Deployment{Readers: []ReaderSpec{
		{ID: 0, Zone: Zone{XMin: 2, XMax: 1}, Config: cfg},
	}}, Options{}); err == nil {
		t.Error("inverted zone accepted")
	}
}

// TestSnapshotPartialFailureAtomic: when one shard's localization errors
// mid-snapshot, NO shard may commit — every refreshed shard must keep its
// previous cache and stay dirty, so the retried snapshot re-localizes all
// of them and never stitches a mix of new and stale zones. (Pre-fix,
// shards that succeeded before the error had already replaced `cached` and
// cleared `dirty`.)
func TestSnapshotPartialFailureAtomic(t *testing.T) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewSharded(Of(ms), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}

	se, err := NewSharded(Of(ms), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := se.Consume(reads); err != nil {
		t.Fatal(err)
	}
	// Make the *last* shard fail so the other has already produced its
	// result within the same snapshot.
	fail := se.shards[len(se.shards)-1]
	orig := fail.snap
	fail.snap = func() (*stpp.Result, error) {
		return nil, fmt.Errorf("injected shard failure")
	}
	if _, err := se.Snapshot(); err == nil {
		t.Fatal("snapshot with a failing shard succeeded")
	}
	for _, sh := range se.shards {
		if !sh.dirty {
			t.Errorf("shard %d committed dirty=false during a failed snapshot", sh.spec.ID)
		}
		if sh.cached != nil {
			t.Errorf("shard %d committed a cached result during a failed snapshot", sh.spec.ID)
		}
	}

	// The failure clears: the retried snapshot must match a clean engine's
	// one-shot result exactly.
	fail.snap = orig
	got, err := se.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.XOrder, want.XOrder) {
		t.Errorf("post-retry X order %v != clean run %v", got.XOrder, want.XOrder)
	}
	if !reflect.DeepEqual(got.YOrder, want.YOrder) {
		t.Errorf("post-retry Y order %v != clean run %v", got.YOrder, want.YOrder)
	}
	for i := range want.Shards {
		if want.Shards[i].Result == nil || got.Shards[i].Result == nil {
			t.Fatalf("shard %d missing result after retry", want.Shards[i].ReaderID)
		}
		sameResult(t, want.Shards[i].Result, got.Shards[i].Result)
	}
}

// TestSnapshotFailureKeepsPriorCache: a failed snapshot must leave the
// previous successful snapshot's caches untouched, so the engine can keep
// serving the last good result per shard.
func TestSnapshotFailureKeepsPriorCache(t *testing.T) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSharded(Of(ms), Options{})
	if err != nil {
		t.Fatal(err)
	}
	half := len(reads) / 2
	if err := se.Consume(reads[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Snapshot(); err != nil {
		t.Fatal(err)
	}
	prior := make([]*stpp.Result, len(se.shards))
	for i, sh := range se.shards {
		prior[i] = sh.cached
	}

	if err := se.Consume(reads[half:]); err != nil {
		t.Fatal(err)
	}
	for _, sh := range se.shards {
		sh := sh
		orig := sh.snap
		sh.snap = func() (*stpp.Result, error) { return nil, fmt.Errorf("boom") }
		defer func() { sh.snap = orig }()
	}
	if _, err := se.Snapshot(); err == nil {
		t.Fatal("snapshot with failing shards succeeded")
	}
	for i, sh := range se.shards {
		if sh.cached != prior[i] {
			t.Errorf("shard %d: failed snapshot replaced the prior cache", sh.spec.ID)
		}
		if !sh.dirty {
			t.Errorf("shard %d: failed snapshot cleared dirty", sh.spec.ID)
		}
	}
}

// TestFromHeader: the shared trace-header → deployment derivation used by
// cmd/stpp, stppd and loadgen.
func TestFromHeader(t *testing.T) {
	s, err := scenario.ConveyorPopulation(2, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := s.STPPConfig()

	// No reader metadata: one implicit reader with ID 0, header-level
	// geometry applied.
	d := FromHeader(trace.Header{PerpDist: 0.42, Speed: 0.2}, base, false, false)
	if len(d.Readers) != 1 || d.Readers[0].ID != 0 {
		t.Fatalf("single-reader header: %+v", d)
	}
	if got := d.Readers[0].Config.Reference.PerpDist; got != 0.42 {
		t.Errorf("header PerpDist not applied: %v", got)
	}

	// Per-reader metadata overrides the header level; fixed flags pin the
	// base values against both.
	h := trace.Header{
		PerpDist: 0.42,
		Readers: []trace.ReaderMeta{
			{ID: 1, XMin: 0, XMax: 2, PerpDist: 0.5, ClockOffset: 1.5},
			{ID: 2, XMin: 2, XMax: 4, Speed: 0.3},
		},
	}
	d = FromHeader(h, base, false, false)
	if len(d.Readers) != 2 {
		t.Fatalf("reader count %d", len(d.Readers))
	}
	if got := d.Readers[0].Config.Reference.PerpDist; got != 0.5 {
		t.Errorf("reader 1 PerpDist = %v, want 0.5", got)
	}
	if got := d.Readers[0].ClockOffset; got != 1.5 {
		t.Errorf("reader 1 ClockOffset = %v, want 1.5", got)
	}
	if got := d.Readers[1].Config.Reference.PerpDist; got != 0.42 {
		t.Errorf("reader 2 PerpDist = %v, want header 0.42", got)
	}
	if got := d.Readers[1].Config.Reference.Speed; got != 0.3 {
		t.Errorf("reader 2 Speed = %v, want 0.3", got)
	}
	fixed := FromHeader(h, base, true, true)
	if got := fixed.Readers[0].Config.Reference; got != base.Reference {
		t.Errorf("fixed flags did not pin base geometry: %+v", got)
	}

	// Malformed metadata must be rejected by NewSharded, never panic.
	for _, bad := range []trace.Header{
		{Readers: []trace.ReaderMeta{{ID: 1}, {ID: 1}}},
		{Readers: []trace.ReaderMeta{{ID: 1, XMin: 2, XMax: 1}}},
		{Readers: []trace.ReaderMeta{{ID: 1, XMin: math.NaN()}}},
		{Readers: []trace.ReaderMeta{{ID: 1, XMax: math.Inf(1)}}},
		{Readers: []trace.ReaderMeta{{ID: 1, ClockOffset: math.NaN()}}},
	} {
		if _, err := NewSharded(FromHeader(bad, base, false, false), Options{}); err == nil {
			t.Errorf("malformed header %+v accepted", bad)
		}
	}
}

// TestSnapshotEmpty: a snapshot before any shard has reads is an error,
// matching the plain engine's behavior.
func TestSnapshotEmpty(t *testing.T) {
	s, err := scenario.ConveyorPopulation(2, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSharded(Deployment{Readers: []ReaderSpec{
		{ID: 0, Config: s.STPPConfig()},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Snapshot(); err == nil {
		t.Error("snapshot over empty deployment succeeded")
	}
}

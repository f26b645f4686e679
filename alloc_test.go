// Allocation guards for the two hot paths whose per-op allocation counts
// the optimization work drove down: a regression that re-introduces
// per-call garbage shows up here as a test failure, not as a slow drift
// in benchmark numbers nobody compares.
package main

import (
	"testing"

	"repro/internal/dtw"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// TestSegmentedAlignAllocs pins a full segment alignment on a reused
// aligner at zero allocations: Release hands the packed decision array to
// the shared free-list and the next Align draws it back out, the operand
// panels and value ring stay with the aligner, and the fill's cost column
// and byte decisions stay in the caller's reused Scratch — any new
// per-call allocation in the fill or traceback shows up here.
func TestSegmentedAlignAllocs(t *testing.T) {
	det, p := benchProfilePair(t)
	ref, _, _ := det.Reference()
	al := dtw.NewSegmentAligner(ref.Segmentize(5), dtw.SegmentAlignOpts{Stiffness: 0.5})
	qs := p.Segmentize(5)
	var sc dtw.Scratch
	// Warm the aligner, the scratch and the decision free-list to steady
	// state.
	for i := 0; i < 4; i++ {
		al.Release()
		al.Align(qs, 0, &sc)
	}
	allocs := testing.AllocsPerRun(50, func() {
		al.Release()
		al.Align(qs, 0, &sc)
	})
	if allocs > 0 {
		t.Fatalf("a full re-alignment allocates %.1f/op, want 0", allocs)
	}
}

// TestScratchAcrossReferencesAllocs pins one Scratch serving aligners over
// references of different lengths, as the shared call scratches do when a
// deployment's readers differ in geometry: after both sizes are warm,
// alternating them allocates nothing, and each answer equals the one a
// fresh Scratch gives.
func TestScratchAcrossReferencesAllocs(t *testing.T) {
	det, p := benchProfilePair(t)
	ref, _, _ := det.Reference()
	long := ref.Segmentize(5)
	opts := dtw.SegmentAlignOpts{Stiffness: 0.5}
	als := []*dtw.SegmentAligner{
		dtw.NewSegmentAligner(long, opts),
		dtw.NewSegmentAligner(long[:len(long)/2+1], opts),
	}
	qs := p.Segmentize(5)
	want := make([]dtw.Match, len(als))
	for i, al := range als {
		want[i] = al.Align(qs, 0, new(dtw.Scratch))
	}
	var sc dtw.Scratch
	alignBoth := func() {
		for i, al := range als {
			al.Release()
			if got := al.Align(qs, 0, &sc); got != want[i] {
				t.Fatalf("aligner %d on a shared Scratch: %+v, want %+v", i, got, want[i])
			}
		}
	}
	for i := 0; i < 4; i++ {
		alignBoth()
	}
	if allocs := testing.AllocsPerRun(50, alignBoth); allocs > 0 {
		t.Fatalf("alternating references on one Scratch allocates %.1f/op, want 0", allocs)
	}
}

// TestDetectAllocs pins the one-shot Detect — what the batch Localizer
// runs once per tag — at one allocation per call, amortized: its
// DetectState comes from the detector's pool with segment cache, aligner
// and curve buffers intact, and its call scratch from the bounded
// free-list (the bench measures 0 allocs/op). The budget
// absorbs a pool miss after a GC, not a state built per call, which costs
// a dozen allocations and trips this immediately.
func TestDetectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the budget assumes sync.Pool keeps its items; the race detector drops them on purpose")
	}
	det, p := benchProfilePair(t)
	for i := 0; i < 4; i++ { // warm the pools to steady state
		if _, err := det.Detect(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		det.Detect(p)
	})
	if allocs > 1 {
		t.Fatalf("one-shot Detect allocates %.1f/op, want <= 1 amortized", allocs)
	}
}

// TestBlockedDetectAllocs pins serial multi-tag detection —
// LocalizeTagIncremental over 16 tags in turn — at
// one allocation per tag, amortized. In steady state the pass recycles
// everything through pools (the bench measures 0 allocs/op); the per-tag
// budget only absorbs pool misses under GC pressure, not a regression
// that re-introduces per-tag garbage (which costs several allocations
// per tag and trips this immediately).
func TestBlockedDetectAllocs(t *testing.T) {
	s, err := scenario.Population(16, true, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.ProfilesOf()
	if err != nil {
		t.Fatal(err)
	}
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		t.Fatal(err)
	}
	sts := make([]*stpp.DetectState, len(ps))
	for i := range sts {
		sts[i] = loc.NewDetectState()
	}
	out := make([]stpp.TagResult, len(ps))
	detect := func() {
		for _, st := range sts {
			st.Release()
		}
		for k, p := range ps {
			out[k] = loc.LocalizeTagIncremental(sts[k], p)
		}
	}
	for i := 0; i < 4; i++ { // warm pools to steady state
		detect()
	}
	allocs := testing.AllocsPerRun(50, detect)
	if allocs > float64(len(ps)) {
		t.Fatalf("multi-tag detection allocates %.1f/op for %d tags, want <= 1/tag amortized", allocs, len(ps))
	}
}

// TestSnapshotCadenceAllocs pins the alloc cost of snapshot cadence: the
// same stream consumed with 32 snapshots must allocate at most 3× the
// single-snapshot run. Before the per-snapshot residuals were pooled
// (scratch-threaded V-zone/X-key/Y-key buffers with geometric growth,
// reflection-free order sorts, typed immature-tag errors) the ratio was
// ~6.5×: every snapshot re-allocated every dirty tag's temporaries, so
// allocations scaled linearly with cadence instead of with the stream.
func TestSnapshotCadenceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stream alloc measurement")
	}
	reads, cfg := benchReadLog(t)
	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(snapshots int) float64 {
		chunk := (len(reads) + snapshots - 1) / snapshots
		return testing.AllocsPerRun(5, func() {
			eng := pipeline.NewFromLocalizer(loc, pipeline.Options{})
			for start := 0; start < len(reads); start += chunk {
				eng.Consume(reads[start:min(start+chunk, len(reads))])
				if _, err := eng.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	one, many := run(1), run(32)
	if many > 3*one {
		t.Fatalf("32 snapshots allocate %.0f/run vs %.0f for 1 (%.1fx, want <= 3x): per-snapshot temporaries are being re-allocated", many, one, many/one)
	}
}

// TestWALAppendAllocs bounds the journal append for a 256-read batch —
// the extra work every durable ingest batch pays. The fixed-width binary
// batch encoding into a pooled buffer leaves only the pool round-trip and
// the occasional buffer regrowth (an encoding/json append was 771/op —
// one-plus allocations per read); this guard keeps the encode path
// garbage-free.
func TestWALAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the budget assumes sync.Pool keeps its items; the race detector drops them on purpose")
	}
	reads, _ := benchReadLog(t)
	batch := reads[:min(256, len(reads))]
	l, err := wal.Create(t.TempDir(), trace.Header{Scenario: "alloc-guard"}, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("AppendBatch allocates %.1f/op for %d reads, want <= 4", allocs, len(batch))
	}
}

package serve

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/epcgen2"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/wal"
)

// writeCheckpointedWAL is writeFullWAL with the checkpoint cadence
// enabled: the session journals checkpoint records every `every` consumed
// reads, truncating covered segments as it goes. It asserts the run
// actually exercised the machinery — at least one checkpoint record
// landed and at least one segment was truncated — so the crash sweeps
// below cannot silently degrade into the PR-4 no-checkpoint sweep.
func writeCheckpointedWAL(t *testing.T, cs crashScene, nBatches, every int) (batches [][]reader.TagRead, segs []string, recs []walRecord) {
	t.Helper()
	dataDir := t.TempDir()
	srv := newTestServer(t, Options{
		Config:          cs.cfg,
		DataDir:         dataDir,
		Fsync:           wal.SyncNever,
		SegmentBytes:    cs.segBytes,
		CheckpointEvery: every,
	})
	sess, err := srv.CreateSession(cs.header)
	if err != nil {
		t.Fatal(err)
	}
	batches = chunkReads(cs.reads, nBatches)
	for _, b := range batches {
		if err := sess.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	// Drain fully before finishing: checkpoints are skipped once the
	// ingest side closes (the finish marker must stay the last record),
	// so finishing early would race the cadence out of the log.
	waitDrained(t, sess)
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().CheckpointsWritten; got == 0 {
		t.Fatalf("cadence %d wrote no checkpoints over %d reads", every, len(cs.reads))
	}
	if got := srv.Stats().SegmentsTruncated; got == 0 {
		t.Fatalf("checkpoints truncated no segments (segment bound %d)", cs.segBytes)
	}
	segs, err = wal.SegmentFiles(filepath.Join(dataDir, sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	return batches, segs, walRecords(t, segs)
}

// segFileIndex parses a segment file's numeric index from its name.
func segFileIndex(t *testing.T, path string) int {
	t.Helper()
	var idx int
	if _, err := fmt.Sscanf(filepath.Base(path), "wal-%08d.seg", &idx); err != nil {
		t.Fatalf("unparseable segment name %q: %v", filepath.Base(path), err)
	}
	return idx
}

// TestCheckpointedCrashInjection sweeps crash points over a WAL that
// holds checkpoint records and has had its history truncated: one cut
// just inside, mid-payload and at the end boundary of every surviving
// record — including inside the checkpoint records themselves. A torn
// checkpoint must fall back to the previous basis; an intact one must
// restore the engine and replay only the suffix. Every recovered session
// must land byte-identically on the offline replay of the journaled
// prefix, and the recovery metrics must account for checkpoint-covered
// versus suffix-replayed reads exactly.
func TestCheckpointedCrashInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpointed crash sweep in -short mode")
	}
	cs := crashScenes(t)[1] // warehouse-aisle
	cs.segBytes = 32 << 10  // force rotations so truncation has segments to delete
	every := len(cs.reads) / 3
	batches, segs, recs := writeCheckpointedWAL(t, cs, 8, every)
	if segFileIndex(t, segs[0]) < 2 {
		t.Fatalf("first surviving segment is %s; truncation never deleted the log head", filepath.Base(segs[0]))
	}
	offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}

	// cumToBatches maps a checkpoint's read count back to how many whole
	// batches it covers. Checkpoints are taken on the drain task between
	// batches, so every journaled count must land exactly on a batch
	// boundary — anything else is itself a bug.
	cumToBatches := map[int64]int{0: 0}
	cum := int64(0)
	for i, b := range batches {
		cum += int64(len(b))
		cumToBatches[cum] = i + 1
	}

	// groundTruth walks the records wholly before the cut, mirroring
	// recovery's contract: the last basis (header or checkpoint) plus the
	// surviving batch records it does not cover determine the journaled
	// prefix. A basis checkpoint missing some of its uncovered records
	// (possible only in synthetic cuts — a real crash cannot delete a
	// record a later durable checkpoint did not cover) must be refused.
	groundTruth := func(cutSeg int, cutOff int64) (k int, finished, haveBasis, ckptBasis, deficient bool, ckptReads int64) {
		base, pend := 0, 0
		for _, r := range recs {
			if r.seg > cutSeg || (r.seg == cutSeg && r.info.End > cutOff) {
				break
			}
			switch r.info.Type {
			case 1: // header
				haveBasis = true
			case 5: // batch
				pend++
			case 3: // finish
				finished = true
			case 4: // checkpoint
				u, reads, err := wal.InspectCheckpoint(segs[r.seg], r.info)
				if err != nil {
					t.Fatalf("inspect checkpoint in %s: %v", filepath.Base(segs[r.seg]), err)
				}
				covered, ok := cumToBatches[reads]
				if !ok {
					t.Fatalf("checkpoint covers %d reads, not a batch boundary", reads)
				}
				deficient = int64(pend) < u
				if int64(pend) > u {
					pend = int(u)
				}
				base = covered
				haveBasis, ckptBasis, ckptReads = true, true, reads
			}
		}
		return base + pend, finished, haveBasis, ckptBasis, deficient, ckptReads
	}

	wantReads := func(k int) int64 {
		n := int64(0)
		for _, b := range batches[:k] {
			n += int64(len(b))
		}
		return n
	}

	type cut struct {
		seg      int
		off      int64
		boundary bool
	}
	var cuts []cut
	cuts = append(cuts, cut{0, 0, false})
	for _, r := range recs {
		mid := r.info.Offset + (r.info.End-r.info.Offset)/2
		cuts = append(cuts,
			cut{r.seg, r.info.Offset + 1, false},
			cut{r.seg, mid, false},
			cut{r.seg, r.info.End, true})
	}

	sawCheckpointBasis := false
	for _, c := range cuts {
		name := fmt.Sprintf("seg%d@%d", c.seg, c.off)
		dataDir := t.TempDir()
		copyTruncated(t, segs, filepath.Join(dataDir, "s000001"), c.seg, c.off)
		k, finished, haveBasis, ckptBasis, deficient, ckptReads := groundTruth(c.seg, c.off)
		srv, sess := bootRecovered(t, cs, dataDir)

		// A cut before any basis record (the image starts mid-history:
		// its original header went with the truncated segments) leaves
		// nothing recoverable, and a cut that leaves a deficient basis
		// checkpoint would lose reads; the boot must skip either image,
		// not invent a session.
		if !haveBasis || deficient {
			if sess != nil {
				t.Errorf("%s: session recovered from an unrecoverable image (basis=%v deficient=%v)",
					name, haveBasis, deficient)
			}
			if got := srv.Stats().WALSkipped; got != 1 {
				t.Errorf("%s: WALSkipped = %d, want 1", name, got)
			}
			continue
		}
		if sess == nil {
			t.Fatalf("%s: session not recovered", name)
		}
		if finished != sess.finished() {
			t.Fatalf("%s: recovered finished=%v, want %v", name, sess.finished(), finished)
		}
		if ckptBasis {
			sawCheckpointBasis = true
			if got, want := srv.Stats().ReadsRecovered, wantReads(k); got != want {
				t.Errorf("%s: ReadsRecovered = %d, want %d", name, got, want)
			}
			if got, want := srv.Stats().SuffixReadsReplayed, wantReads(k)-ckptReads; got != want {
				t.Errorf("%s: SuffixReadsReplayed = %d, want %d (checkpoint covers %d)", name, got, want, ckptReads)
			}
		}
		var snap *Snapshot
		var err error
		if finished {
			snap = sess.Latest()
			if snap == nil || !snap.Final {
				t.Fatalf("%s: finished session has no final snapshot", name)
			}
		} else if c.boundary && k < len(batches) {
			// Continuation: re-ingest the tail the crash cost the
			// producer, then the session must land on the full replay.
			for _, b := range batches[k:] {
				if err := sess.Enqueue(b); err != nil {
					t.Fatalf("%s: re-ingest after recovery: %v", name, err)
				}
			}
			k = len(batches)
			snap, err = sess.Finish()
			if err != nil {
				t.Fatalf("%s: finish after re-ingest: %v", name, err)
			}
		} else {
			snap, err = sess.Finish()
			if k == 0 {
				if err == nil {
					t.Errorf("%s: empty recovery produced a snapshot", name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: finish recovered session: %v", name, err)
			}
		}

		if snap.Reads != wantReads(k) {
			t.Errorf("%s: recovered %d reads, want %d", name, snap.Reads, wantReads(k))
		}
		gotX, gotY := snapOrders(snap)
		wantX, wantY := offline.orders(t, k)
		if !slices.Equal(gotX, wantX) {
			t.Errorf("%s: X order diverged from offline replay of %d batches:\n  recovered %v\n  offline   %v",
				name, k, gotX, wantX)
		}
		if !slices.Equal(gotY, wantY) {
			t.Errorf("%s: Y order diverged from offline replay of %d batches:\n  recovered %v\n  offline   %v",
				name, k, gotY, wantY)
		}
	}
	if !sawCheckpointBasis {
		t.Error("sweep never recovered from a checkpoint basis")
	}
}

// TestTornCheckpointFallsBackToHistory builds the one reachable on-disk
// state where a torn checkpoint record has history behind it: the crash
// hit mid-checkpoint-write, BEFORE truncation ran, so the stale segments
// holding the covered prefix (header included) are still in front of the
// log. Recovery must detect the torn record, fall back to replaying the
// full journaled prefix batch by batch, and land on the same orders a
// process that never checkpointed would have.
func TestTornCheckpointFallsBackToHistory(t *testing.T) {
	cs := crashScenes(t)[1] // warehouse-aisle
	cs.segBytes = 32 << 10
	batches, segs, recs := writeCheckpointedWAL(t, cs, 8, len(cs.reads)/3)
	firstIdx := segFileIndex(t, segs[0])
	if firstIdx < 2 {
		t.Fatal("no room for the stale history in front of the surviving log")
	}

	// The surviving checkpoint record, and how many batches it covers.
	var ck walRecord
	found := false
	for _, r := range recs {
		if r.info.Type == 4 {
			ck, found = r, true
			break
		}
	}
	if !found {
		t.Fatal("no checkpoint record survived in the final image")
	}
	ckU, ckReads, err := wal.InspectCheckpoint(segs[ck.seg], ck.info)
	if err != nil {
		t.Fatal(err)
	}
	covered, cum := -1, int64(0)
	for i, b := range batches {
		if cum == ckReads {
			covered = i
			break
		}
		cum += int64(len(b))
	}
	if covered < 0 {
		if cum != ckReads {
			t.Fatalf("checkpoint covers %d reads, not a batch boundary", ckReads)
		}
		covered = len(batches)
	}
	if covered == 0 {
		t.Fatal("checkpoint covers no batches; the fallback would be trivial")
	}

	// At the moment this checkpoint was being written, every batch it had
	// journaled — covered and uncovered alike — was still on disk: its own
	// truncation had not run yet, and earlier checkpoints only deleted
	// what they covered. The image's surviving batch records are the last
	// few of that journal; the stale segment must restore the rest.
	k := covered + int(ckU) // batches journaled when the checkpoint was cut
	survivors := 0
	for _, r := range recs {
		if r.seg > ck.seg || (r.seg == ck.seg && r.info.End > ck.info.Offset) {
			break
		}
		if r.info.Type == 5 { // batch
			survivors++
		}
	}
	if k-survivors < 1 {
		t.Fatalf("nothing was truncated before the checkpoint (journaled %d, surviving %d)", k, survivors)
	}
	stale := miniLogSegments(t, cs, batches[:k-survivors], 0)
	if len(stale) != 1 {
		t.Fatalf("stale history spans %d segments, want 1", len(stale))
	}
	dataDir := t.TempDir()
	dst := filepath.Join(dataDir, "s000001")
	mid := ck.info.Offset + (ck.info.End-ck.info.Offset)/2
	copyTruncated(t, segs, dst, ck.seg, mid)
	data, err := os.ReadFile(stale[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, fmt.Sprintf("wal-%08d.seg", firstIdx-1)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	wantReads := int64(0)
	for _, b := range batches[:k] {
		wantReads += int64(len(b))
	}

	srv, sess := bootRecovered(t, cs, dataDir)
	if sess == nil {
		t.Fatal("session not recovered")
	}
	if sess.finished() {
		t.Fatal("session recovered as finished from a torn checkpoint")
	}
	m := srv.Stats()
	if got := m.WALTornTails; got != 1 {
		t.Errorf("WALTornTails = %d, want 1", got)
	}
	// No checkpoint basis: every recovered read was replayed batch by batch.
	if rec, suf := m.ReadsRecovered, m.SuffixReadsReplayed; rec != wantReads || suf != wantReads {
		t.Errorf("recovered %d reads with %d suffix-replayed, want %d of both (full-history fallback)",
			rec, suf, wantReads)
	}
	snap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reads != wantReads {
		t.Errorf("recovered %d reads, want %d", snap.Reads, wantReads)
	}
	offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}
	gotX, gotY := snapOrders(snap)
	wantX, wantY := offline.orders(t, k)
	if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
		t.Errorf("fallback orders diverged from offline replay of %d batches:\n  got  %v / %v\n  want %v / %v",
			k, gotX, gotY, wantX, wantY)
	}
}

// miniLogSegments writes a standalone log (same header) holding the given
// batches and returns its segment files — raw material for fabricating
// the stale pre-checkpoint segments a crash mid-truncation leaves behind.
func miniLogSegments(t *testing.T, cs crashScene, batches [][]reader.TagRead, segBytes int64) []string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Create(dir, cs.header, wal.Options{Fsync: wal.SyncNever, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestCrashMidSegmentTruncation: checkpoint truncation unlinks covered
// segments only after the checkpoint record is durable, so a crash
// between the fsync and the unlinks leaves stale pre-checkpoint segments
// in front of the surviving log. Recovery must scan past them — their
// batches are covered by the checkpoint and get discarded — and land on
// exactly the same state, orders and recovery accounting as a clean boot.
func TestCrashMidSegmentTruncation(t *testing.T) {
	cs := crashScenes(t)[1] // warehouse-aisle
	cs.segBytes = 32 << 10
	batches, segs, _ := writeCheckpointedWAL(t, cs, 8, len(cs.reads)/3)
	firstIdx := segFileIndex(t, segs[0])
	if firstIdx < 3 {
		t.Fatalf("first surviving segment index %d leaves no room for stale predecessors", firstIdx)
	}
	offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}
	wantX, wantY := offline.orders(t, len(batches))

	// buildImage copies the surviving log whole, plus fabricated stale
	// segments at the given indices.
	buildImage := func(t *testing.T, stale map[int]string) string {
		t.Helper()
		dataDir := t.TempDir()
		dst := filepath.Join(dataDir, "s000001")
		copyTruncated(t, segs, dst, len(segs)-1, mustSize(t, segs[len(segs)-1]))
		for idx, src := range stale {
			data, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, fmt.Sprintf("wal-%08d.seg", idx)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dataDir
	}

	check := func(t *testing.T, dataDir string, wantRecovered, wantSuffix int64) (int64, int64) {
		t.Helper()
		srv, sess := bootRecovered(t, cs, dataDir)
		if sess == nil {
			t.Fatal("session not recovered")
		}
		if !sess.finished() {
			t.Fatal("recovered session not finished")
		}
		snap := sess.Latest()
		if snap == nil || !snap.Final {
			t.Fatal("no final snapshot")
		}
		gotX, gotY := snapOrders(snap)
		if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
			t.Errorf("recovered orders diverged from the offline replay:\n  got  %v / %v\n  want %v / %v",
				gotX, gotY, wantX, wantY)
		}
		m := srv.Stats()
		if got := m.WALSkipped; got != 0 {
			t.Errorf("WALSkipped = %d, want 0", got)
		}
		if got := m.WALTornTails; got != 0 {
			t.Errorf("WALTornTails = %d, want 0", got)
		}
		rec, suf := m.ReadsRecovered, m.SuffixReadsReplayed
		if wantRecovered >= 0 && (rec != wantRecovered || suf != wantSuffix) {
			t.Errorf("recovery accounting (recovered %d, suffix %d) diverged from clean boot (%d, %d)",
				rec, suf, wantRecovered, wantSuffix)
		}
		if suf >= rec {
			t.Errorf("suffix replay (%d) not smaller than total recovered (%d): checkpoint never took effect", suf, rec)
		}
		return rec, suf
	}

	// Clean boot: the reference for orders and accounting.
	cleanRec, cleanSuf := check(t, buildImage(t, nil), -1, 0)

	// One stale segment, holding the original header plus the covered
	// prefix — the image a crash leaves when truncation deleted nothing.
	single := miniLogSegments(t, cs, batches[:3], 0)
	if len(single) != 1 {
		t.Fatalf("stale material spans %d segments, want 1", len(single))
	}
	t.Run("stale-with-header", func(t *testing.T) {
		check(t, buildImage(t, map[int]string{firstIdx - 1: single[0]}), cleanRec, cleanSuf)
	})

	// Two stale segments without a header record (the oldest-first delete
	// got through the header's segment before dying): recovery must
	// accumulate their batches basis-less, then discard them at the
	// checkpoint.
	multi := miniLogSegments(t, cs, batches[:6], 4<<10)
	if len(multi) < 3 {
		t.Fatalf("stale material spans %d segments, want >= 3", len(multi))
	}
	t.Run("stale-headerless", func(t *testing.T) {
		check(t, buildImage(t, map[int]string{
			firstIdx - 2: multi[len(multi)-2],
			firstIdx - 1: multi[len(multi)-1],
		}), cleanRec, cleanSuf)
	})
}

// waitDrained blocks until the session's drain task has consumed every
// enqueued read and stepped down — after which no checkpoint append can
// be in flight, so the server can be safely abandoned mid-session.
func waitDrained(t *testing.T, sess *Session) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if sess.Consumed() == sess.Enqueued() && sess.state.Load() == stateIdle {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("session never drained: %d of %d reads consumed", sess.Consumed(), sess.Enqueued())
}

// lifecycleCrashScene is the portal-belt churn workload the lifecycle
// tests use: bags pass two portals and go quiet forever, so with the
// lifecycle thresholds below they finalize and evict mid-stream and
// checkpoint records interleave with sweep emissions.
func lifecycleCrashScene(t *testing.T) crashScene {
	t.Helper()
	ms, err := scenario.AirportPortals(scenario.PortalsOpts{
		Portals: 2, Bags: 10, PortalGap: 2.0,
		MinSpacing: 1.5, MaxSpacing: 1.9, BeltSpeed: 0.3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A single unrotated segment: checkpoint truncation (covered
	// elsewhere) never deletes history, so the full batch/checkpoint
	// interleaving stays on disk and every sweep boundary is cuttable.
	return crashScene{
		name:   "portal-lifecycle",
		header: trace.Header{Scenario: "airport-portals", Seed: 5, Readers: ms.ReaderMetas()},
		reads:  reads,
		cfg:    ms.Readers[0].Scene.STPPConfig(),
	}
}

// emittedEPCs flattens a result's emitted stream to comparable strings.
func emittedEPCs(res *deploy.GlobalResult) []string {
	epcs := make([]epcgen2.EPC, len(res.Emitted))
	for i, e := range res.Emitted {
		epcs[i] = e.EPC
	}
	return trace.EncodeEPCs(epcs)
}

// TestLifecycleCrashAtSweepBoundaries extends the crash sweep to the tag
// lifecycle: a finalize-enabled session journals checkpoints while bags
// are being emitted and evicted, and the image is truncated at the END
// boundary of every surviving record — each checkpoint's boundary is the
// on-disk state right after a sweep persisted its emissions and
// evictions, and the preceding batch's boundary is the state right
// before. For every such image the rebooted session must (a) report an
// emitted stream that is a positional prefix of the clean run's — a
// finalized bag's emitted position never moves across a crash — and
// (b) after re-ingesting the lost tail, land on the clean run's final
// orders and exact emitted stream with no reads dropped as late.
func TestLifecycleCrashAtSweepBoundaries(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle crash sweep in -short mode")
	}
	cs := lifecycleCrashScene(t)
	opts := Options{
		Config:          cs.cfg,
		Fsync:           wal.SyncNever,
		SegmentBytes:    cs.segBytes,
		CheckpointEvery: len(cs.reads) / 5,
		FinalizeAfter:   2.0,
		FinalizeMargin:  1.0,
	}

	// The clean reference run: journal with checkpoints, finish, keep the
	// log. Its sweeps must actually have emitted mid-stream — otherwise
	// the cuts below would never straddle a finalize/evict boundary.
	refDir := t.TempDir()
	opts.DataDir = refDir
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(cs.header)
	if err != nil {
		t.Fatal(err)
	}
	// Journal the whole stream before the consumer runs: park the drain by
	// claiming its Active slot, enqueue every batch (Enqueue journals and
	// queues but won't schedule a second drain), then release. All batch
	// records land in segment 0 ahead of the first checkpoint rotation, so
	// the final checkpoint's prefix sweep can never cover segment 0 and
	// the full batch/checkpoint interleaving below stays cuttable. Without
	// this the cut count depends on the producer goroutine outrunning the
	// consumer, which it reliably does not under -race on small boxes.
	batches := chunkReads(cs.reads, 10)
	if len(batches) > srv.opts.QueueBatches {
		t.Fatalf("scene needs %d queue slots for the parked prefeed, have %d", len(batches), srv.opts.QueueBatches)
	}
	sess.state.Store(stateActive)
	for _, b := range batches {
		if err := sess.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	sess.state.Store(stateIdle)
	sess.schedule()
	waitDrained(t, sess)
	refSnap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats().CheckpointsWritten == 0 {
		t.Fatal("reference run wrote no checkpoints")
	}
	if srv.Stats().TagsFinalized == 0 {
		t.Fatal("reference run finalized nothing: the sweep boundaries are empty")
	}
	refX, refY := snapOrders(refSnap)
	refEmitted := emittedEPCs(refSnap.Result)
	if len(refEmitted) == 0 || len(refEmitted) >= len(refX) {
		t.Fatalf("reference emitted %d of %d bags; want a non-empty strict prefix", len(refEmitted), len(refX))
	}
	if !slices.Equal(refEmitted, refX[:len(refEmitted)]) {
		t.Fatalf("reference emitted stream is not a prefix of its own final order")
	}

	segs, err := wal.SegmentFiles(filepath.Join(refDir, sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords(t, segs)
	cumToBatches := map[int64]int{0: 0}
	cum := int64(0)
	for i, b := range batches {
		cum += int64(len(b))
		cumToBatches[cum] = i + 1
	}

	// Clean end-boundary cuts at every record from the header on. k
	// tracks how many whole batches the journaled prefix covers,
	// mirroring recovery's basis-plus-surviving-suffix contract.
	type cut struct {
		seg int
		off int64
		k   int
	}
	var cuts []cut
	base, pend, nCkpts := 0, 0, 0
	seenBasis := false
	for _, r := range recs {
		switch r.info.Type {
		case 1: // header
			seenBasis = true
		case 5: // batch
			pend++
		case 3: // finish marker: cutting after it is just the clean image
			continue
		case 4: // checkpoint
			// A cut mid-checkpoint tears the record: recovery must refuse
			// the checkpoint basis and fall back to replaying the whole
			// surviving history — with the lifecycle enabled, re-emitting
			// from scratch to the very same positions.
			cuts = append(cuts, cut{r.seg, r.info.Offset + (r.info.End-r.info.Offset)/2, base + pend})
			u, reads, err := wal.InspectCheckpoint(segs[r.seg], r.info)
			if err != nil {
				t.Fatal(err)
			}
			covered, ok := cumToBatches[reads]
			if !ok {
				t.Fatalf("checkpoint covers %d reads, not a batch boundary", reads)
			}
			if int64(pend) > u {
				pend = int(u)
			}
			base = covered
			seenBasis = true
			nCkpts++
		}
		if seenBasis && base+pend > 0 { // k=0 recovers an empty session: nothing to sweep
			cuts = append(cuts, cut{r.seg, r.info.End, base + pend})
		}
	}
	if len(cuts) < 8 || nCkpts < 1 {
		t.Fatalf("%d cuts over %d checkpoints; the log never exercised a sweep boundary", len(cuts), nCkpts)
	}

	for _, c := range cuts {
		name := fmt.Sprintf("seg%d@%d-k%d", c.seg, c.off, c.k)
		dataDir := t.TempDir()
		copyTruncated(t, segs, filepath.Join(dataDir, "s000001"), c.seg, c.off)
		bopts := opts
		bopts.DataDir = dataDir
		srv2, err := New(bopts)
		if err != nil {
			t.Fatalf("%s: reboot: %v", name, err)
		}
		sess2, ok := srv2.Session("s000001")
		if !ok {
			t.Fatalf("%s: session not recovered", name)
		}
		snap2, err := sess2.Refresh()
		if err != nil {
			t.Fatalf("%s: refresh recovered session: %v", name, err)
		}
		got := emittedEPCs(snap2.Result)
		if len(got) > len(refEmitted) || !slices.Equal(got, refEmitted[:len(got)]) {
			t.Errorf("%s: recovered emitted stream is not a positional prefix of the clean run's:\n  recovered %v\n  clean     %v",
				name, got, refEmitted)
		}

		// The belt keeps moving: re-ingest what the crash cost the
		// producer and the run must converge on the clean run exactly.
		for _, b := range batches[c.k:] {
			if err := sess2.Enqueue(b); err != nil {
				t.Fatalf("%s: re-ingest after recovery: %v", name, err)
			}
		}
		fin, err := sess2.Finish()
		if err != nil {
			t.Fatalf("%s: finish after re-ingest: %v", name, err)
		}
		gotX, gotY := snapOrders(fin)
		if !slices.Equal(gotX, refX) || !slices.Equal(gotY, refY) {
			t.Errorf("%s: final orders diverged from the clean run:\n  got  %v / %v\n  want %v / %v",
				name, gotX, gotY, refX, refY)
		}
		if fe := emittedEPCs(fin.Result); !slices.Equal(fe, refEmitted) {
			t.Errorf("%s: final emitted stream diverged:\n  got  %v\n  want %v", name, fe, refEmitted)
		}
		if late := srv2.Stats().LateReadsDropped; late != 0 {
			t.Errorf("%s: %d reads dropped as late on a gap-honoring workload", name, late)
		}
	}
}

// TestCheckpointRestartEquivalenceProperty is the serve-level version of
// the checkpoint property: random checkpoint cadences × random batch
// sizes × out-of-order reads, ingested live and then abandoned
// mid-session. The rebooted server — restoring the last checkpoint and
// replaying only the journaled suffix — must finish on orders
// byte-identical to the offline replay of everything enqueued.
func TestCheckpointRestartEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("restart property sweep in -short mode")
	}
	base := crashScenes(t)[1] // warehouse-aisle
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		cs := base
		if trial%2 == 1 {
			cs.reads = perturbReads(rng, base.reads, 0.05)
		}
		cadence := 1 + rng.Intn(len(cs.reads))
		nBatches := 3 + rng.Intn(10)
		name := fmt.Sprintf("trial%d-every%d-batches%d", trial, cadence, nBatches)
		batches := chunkReads(cs.reads, nBatches)
		dataDir := t.TempDir()
		opts := Options{
			Config:          cs.cfg,
			DataDir:         dataDir,
			Fsync:           wal.SyncNever,
			SegmentBytes:    32 << 10,
			CheckpointEvery: cadence,
		}
		srv1 := newTestServer(t, opts)
		sess1, err := srv1.CreateSession(cs.header)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := sess1.Enqueue(b); err != nil {
				t.Fatal(err)
			}
		}
		waitDrained(t, sess1)
		ckpts := srv1.Stats().CheckpointsWritten
		if ckpts == 0 {
			t.Fatalf("%s: cadence %d <= %d reads wrote no checkpoints", name, cadence, len(cs.reads))
		}
		// Crash: srv1 abandoned unfinished.

		srv2, err := New(opts)
		if err != nil {
			t.Fatalf("%s: reboot: %v", name, err)
		}
		sess2, ok := srv2.Session(sess1.ID)
		if !ok {
			t.Fatalf("%s: session not recovered", name)
		}
		m := srv2.Stats()
		if got, want := m.ReadsRecovered, int64(len(cs.reads)); got != want {
			t.Errorf("%s: ReadsRecovered = %d, want %d", name, got, want)
		}
		if suf, rec := m.SuffixReadsReplayed, m.ReadsRecovered; suf >= rec {
			t.Errorf("%s: suffix replay (%d of %d reads) saved nothing despite %d checkpoints", name, suf, rec, ckpts)
		}
		snap, err := sess2.Finish()
		if err != nil {
			t.Fatalf("%s: finish recovered session: %v", name, err)
		}
		offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}
		wantX, wantY := offline.orders(t, len(batches))
		gotX, gotY := snapOrders(snap)
		if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
			t.Errorf("%s: recovered orders diverged from the offline replay:\n  got  %v / %v\n  want %v / %v",
				name, gotX, gotY, wantX, wantY)
		}
	}
}

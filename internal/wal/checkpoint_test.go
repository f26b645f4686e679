package wal

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// ckptLog builds a live log with n batches appended and returns it open.
func ckptLog(t *testing.T, dir string, opts Options, n, per int) *Log {
	t.Helper()
	opts.fill()
	l, err := Create(dir, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(n, per) {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestCheckpointRoundTrip: recovery of a checkpointed log must return the
// envelope's state and read count plus exactly the uncovered suffix — the
// batches queued at capture time and everything appended after.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{}, 6, 4)
	state := []byte("opaque engine state")
	// 2 of the 6 journaled batches were still queued when the state was
	// captured; 16 reads (4 batches × 4) are folded into it.
	if _, err := l.AppendCheckpoint(2, 16, state); err != nil {
		t.Fatal(err)
	}
	post := testBatches(9, 4)[6:] // 3 more batches after the checkpoint
	for _, b := range post {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	rec := recoverDir(t, dir)
	if !bytes.Equal(rec.Checkpoint, state) {
		t.Errorf("checkpoint state %q, want %q", rec.Checkpoint, state)
	}
	if rec.CheckpointReads != 16 {
		t.Errorf("CheckpointReads = %d, want 16", rec.CheckpointReads)
	}
	want := append(testBatches(6, 4)[4:], post...)
	if !reflect.DeepEqual(rec.Batches, want) {
		t.Errorf("suffix = %d batches, want %d (2 uncovered + 3 appended)", len(rec.Batches), len(want))
	}
	if rec.Reads != 5*4 {
		t.Errorf("suffix reads = %d, want 20", rec.Reads)
	}
	if !reflect.DeepEqual(rec.Header, testHeader()) {
		t.Errorf("header lost through checkpoint: %+v", rec.Header)
	}
}

// TestCheckpointTruncatesCoveredSegments: once a checkpoint covers every
// batch, all earlier segments must be deleted, and recovery of the
// truncated log still rebuilds the session — header included, though the
// segment that held the header record is gone.
func TestCheckpointTruncatesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{SegmentBytes: 2048, Fsync: SyncNever}, 20, 8)
	before, _ := SegmentFiles(dir)
	if len(before) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(before))
	}
	truncated, err := l.AppendCheckpoint(0, 160, []byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	if truncated != len(before) {
		t.Errorf("truncated %d segments, want all %d pre-checkpoint ones", truncated, len(before))
	}
	l.Close()

	after, _ := SegmentFiles(dir)
	if len(after) != 2 {
		t.Fatalf("%d segments survive, want the checkpoint's plus the open tail", len(after))
	}
	if after[0] == before[0] {
		t.Error("checkpoint landed in the first segment instead of a fresh one")
	}
	rec := recoverDir(t, dir)
	if len(rec.Batches) != 0 || rec.CheckpointReads != 160 {
		t.Errorf("batches=%d ckptReads=%d, want 0/160", len(rec.Batches), rec.CheckpointReads)
	}
	if !reflect.DeepEqual(rec.Header, testHeader()) {
		t.Errorf("header lost with its segment: %+v", rec.Header)
	}
}

// TestCheckpointKeepsUncoveredSegments: a segment holding any batch the
// checkpoint does not cover must survive truncation.
func TestCheckpointKeepsUncoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{SegmentBytes: 2048, Fsync: SyncNever}, 20, 8)
	before, _ := SegmentFiles(dir)
	// Every batch uncovered: nothing is deletable.
	truncated, err := l.AppendCheckpoint(20, 0, []byte("cold state"))
	if err != nil {
		t.Fatal(err)
	}
	if truncated != 0 {
		t.Errorf("truncated %d segments despite 20 uncovered batches", truncated)
	}
	l.Close()
	after, _ := SegmentFiles(dir)
	if len(after) != len(before)+2 {
		t.Errorf("%d segments, want the %d originals plus the checkpoint's and the open tail", len(after), len(before))
	}
	rec := recoverDir(t, dir)
	if len(rec.Batches) != 20 || rec.Reads != 160 {
		t.Errorf("recovered %d batches / %d reads, want all 20/160", len(rec.Batches), rec.Reads)
	}
}

// TestCheckpointRejectsBadUncovered: an uncovered count outside
// [0, batches] is a caller bug, not a journalable record.
func TestCheckpointRejectsBadUncovered(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{}, 3, 2)
	defer l.Close()
	if _, err := l.AppendCheckpoint(4, 0, nil); err == nil {
		t.Error("uncovered beyond journaled batches accepted")
	}
	if _, err := l.AppendCheckpoint(-1, 0, nil); err == nil {
		t.Error("negative uncovered accepted")
	}
}

// TestCrashMidTruncation: a stale pre-checkpoint segment left behind by a
// crash between the checkpoint fsync and the deletes must not change what
// recovery rebuilds.
func TestCrashMidTruncation(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{SegmentBytes: 2048, Fsync: SyncNever}, 20, 8)
	before, _ := SegmentFiles(dir)
	// Stash the prefix segments, checkpoint (which deletes them), then put
	// one back — the on-disk shape of a crash after deleting only some.
	stash := map[string][]byte{}
	for _, p := range before {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		stash[p] = data
	}
	if _, err := l.AppendCheckpoint(2, 144, []byte("state")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	clean := recoverDir(t, dir)

	// Deletion runs oldest-first, so a crash leaves the last `keep` old
	// segments on disk for every possible interruption point.
	for keep := 1; keep <= len(before); keep++ {
		dir2 := t.TempDir()
		now, _ := SegmentFiles(dir)
		for _, p := range now {
			copyFile(t, p, filepath.Join(dir2, filepath.Base(p)))
		}
		for _, p := range before[len(before)-keep:] {
			if err := os.WriteFile(filepath.Join(dir2, filepath.Base(p)), stash[p], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec := recoverDir(t, dir2)
		if !bytes.Equal(rec.Checkpoint, clean.Checkpoint) ||
			rec.CheckpointReads != clean.CheckpointReads ||
			!reflect.DeepEqual(rec.Batches, clean.Batches) {
			t.Errorf("keep=%d: stale segments changed recovery (batches %d vs %d)",
				keep, len(rec.Batches), len(clean.Batches))
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornCheckpointFallsBack: a corrupted checkpoint record tears the
// log at that record; the earlier basis (the header) stands and recovery
// replays the full pre-checkpoint history.
func TestTornCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{}, 5, 3)
	if _, err := l.AppendCheckpoint(1, 12, []byte("state")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a bit inside the checkpoint record's payload (the checkpoint is
	// sealed alone in its own segment, so find which one holds it).
	segs, _ := SegmentFiles(dir)
	var ck *RecordInfo
	var last string
	for _, p := range segs {
		infos, _ := InspectSegment(p)
		for i := range infos {
			if infos[i].Type == recCheckpoint {
				ck, last = &infos[i], p
			}
		}
	}
	if ck == nil {
		t.Fatal("no checkpoint record found")
	}
	data, _ := os.ReadFile(last)
	data[ck.Offset+frameLen+3] ^= 0x40
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recoverDir(t, dir)
	if !rec.Torn {
		t.Error("corrupt checkpoint not reported as a tear")
	}
	if rec.Checkpoint != nil {
		t.Error("corrupt checkpoint state surfaced")
	}
	if !reflect.DeepEqual(rec.Batches, testBatches(5, 3)) {
		t.Errorf("fallback replay has %d batches, want all 5", len(rec.Batches))
	}
}

// readDir maps each file in dir to its content.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// writeDir materializes a readDir image in a fresh directory.
func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestKillMidCheckpointKeepsBasis: a process killed while it writes a
// checkpoint leaves the new record's segment partly written under its
// temporary name, or whole but not yet renamed, or renamed with the next
// segment not yet open. Each of those disk images must recover without a
// torn tail: to the previous basis and its suffix until the rename, to the
// new checkpoint after it. The temporary file must be gone afterwards.
func TestKillMidCheckpointKeepsBasis(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{Fsync: SyncNever}, 6, 4)
	basis := bytes.Repeat([]byte("basis "), 512)
	if _, err := l.AppendCheckpoint(2, 16, basis); err != nil {
		t.Fatal(err)
	}
	for _, b := range testBatches(9, 4)[6:] {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	pre := readDir(t, dir) // the log as the kill finds it
	next := bytes.Repeat([]byte("next state "), 4096)
	if _, err := l.AppendCheckpoint(1, 32, next); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The segment the interrupted call was writing.
	var name string
	var record []byte
	for n, data := range readDir(t, dir) {
		if _, ok := pre[n]; !ok && len(data) > 0 && data[0] == recCheckpoint {
			name, record = n, data
		}
	}
	if record == nil {
		t.Fatal("no new checkpoint segment")
	}
	want := recoverDir(t, writeDir(t, pre))
	if !bytes.Equal(want.Checkpoint, basis) || len(want.Batches) != 5 {
		t.Fatalf("pre-kill log recovers %d batches past a %d-byte basis", len(want.Batches), len(want.Checkpoint))
	}

	n := len(record)
	for _, cut := range []int{0, 1, frameLen - 1, frameLen, frameLen + 1, n / 2, n - 1, n} {
		files := maps.Clone(pre)
		files[name+tmpSuffix] = record[:cut]
		kdir := writeDir(t, files)
		rec := recoverDir(t, kdir)
		if rec.Torn {
			t.Errorf("cut %d/%d: torn tail %v", cut, n, rec.TornCause)
		}
		if !bytes.Equal(rec.Checkpoint, basis) || rec.CheckpointReads != want.CheckpointReads ||
			!reflect.DeepEqual(rec.Batches, want.Batches) {
			t.Errorf("cut %d/%d: recovered %d batches past a %d-byte basis, want the previous basis and %d batches",
				cut, n, len(rec.Batches), len(rec.Checkpoint), len(want.Batches))
		}
		if _, err := os.Stat(filepath.Join(kdir, name+tmpSuffix)); !os.IsNotExist(err) {
			t.Errorf("cut %d/%d: temporary segment left behind (%v)", cut, n, err)
		}
	}

	// Killed after the rename, before the next segment opened.
	files := maps.Clone(pre)
	files[name] = record
	rec := recoverDir(t, writeDir(t, files))
	if rec.Torn || !bytes.Equal(rec.Checkpoint, next) || rec.CheckpointReads != 32 || len(rec.Batches) != 1 {
		t.Errorf("renamed checkpoint: torn=%v, %d-byte basis, %d reads, %d batches; want the new basis and 1 batch",
			rec.Torn, len(rec.Checkpoint), rec.CheckpointReads, len(rec.Batches))
	}
}

// TestCheckpointReclaimsSupersededBlobs pins the disk bound: when batches
// are journaled ahead of consumption (the live-daemon shape — enqueue
// outruns the drain), every checkpoint leaves uncovered batches behind it,
// so no prefix delete can reach an older checkpoint's segment. The
// superseded blob must still be reclaimed — truncated to an empty segment
// — or a long session pins one full engine state per cadence on disk and
// in every recovery scan.
func TestCheckpointReclaimsSupersededBlobs(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{SegmentBytes: 1 << 20, Fsync: SyncNever}, 10, 8)
	blob := bytes.Repeat([]byte("engine state "), 1024)
	// Checkpoint covering batch 4: batches 5-10 journaled ahead, pinned.
	if _, err := l.AppendCheckpoint(6, 32, blob); err != nil {
		t.Fatal(err)
	}
	segsAfterFirst, _ := SegmentFiles(dir)
	// Consumption advances to batch 8; the second checkpoint supersedes the
	// first, whose segment must drop to zero bytes even though the batch
	// segment in front of it is still pinned by the uncovered suffix.
	if _, err := l.AppendCheckpoint(2, 64, blob); err != nil {
		t.Fatal(err)
	}
	var emptied int
	var total int64
	for _, p := range segsAfterFirst {
		st, err := os.Stat(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			emptied++
		}
		total += st.Size()
	}
	if emptied == 0 {
		t.Fatal("superseded checkpoint segment was not reclaimed")
	}
	if total > int64(2*len(blob)) {
		t.Errorf("pre-supersede segments still hold %d bytes; stale blob not reclaimed", total)
	}
	l.Close()
	rec := recoverDir(t, dir)
	if !bytes.Equal(rec.Checkpoint, blob) || rec.CheckpointReads != 64 {
		t.Fatalf("basis reads = %d, want the second checkpoint's 64", rec.CheckpointReads)
	}
	if want := testBatches(10, 8)[8:]; !reflect.DeepEqual(rec.Batches, want) {
		t.Fatalf("pending = %d batches, want the final 2 uncovered", len(rec.Batches))
	}
}

// TestStackedCheckpointsTrimToSuffix: repeated checkpoints without new
// appends stack up in the log, and each later one's truncation deletes
// batch segments that sit BEFORE earlier checkpoint records. The scan
// then finds intermediate checkpoints whose uncovered count exceeds the
// surviving batch records — a perfectly healthy on-disk state. Recovery
// must trim pending to the suffix each checkpoint still covers and land
// on the final basis, not declare the log torn.
func TestStackedCheckpointsTrimToSuffix(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{SegmentBytes: 1024, Fsync: SyncNever}, 10, 8)
	// Three checkpoints, monotonically covering more of the same 10
	// batches: after batch 1 (9 uncovered), batch 5, then batch 8.
	for _, ck := range []struct {
		uncovered, reads int64
		state            string
	}{{9, 8, "gen1"}, {5, 40, "gen2"}, {2, 64, "gen3"}} {
		if _, err := l.AppendCheckpoint(ck.uncovered, ck.reads, []byte(ck.state)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// The stacked shape must actually be on disk: fewer surviving batch
	// records than the first checkpoint's 9 uncovered.
	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	surviving, batchSegs := 0, map[string]bool{}
	for _, p := range segs {
		infos, err := InspectSegment(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range infos {
			if ri.Type == recBatch {
				surviving++
				batchSegs[p] = true
			}
		}
	}
	if surviving >= 9 {
		t.Fatalf("%d batch records survive; truncation never created the stacked shape", surviving)
	}

	rec := recoverDir(t, dir)
	if rec.Torn {
		t.Fatalf("stacked checkpoints reported as torn: %s", rec.TornCause)
	}
	if !bytes.Equal(rec.Checkpoint, []byte("gen3")) || rec.CheckpointReads != 64 {
		t.Fatalf("basis = %q/%d reads, want gen3/64", rec.Checkpoint, rec.CheckpointReads)
	}
	if want := testBatches(10, 8)[8:]; !reflect.DeepEqual(rec.Batches, want) {
		t.Fatalf("pending = %d batches, want the final 2 uncovered", len(rec.Batches))
	}

	// Counter-case: strip every batch-bearing segment so the FINAL basis
	// itself misses records it claims uncovered. Replaying that would
	// silently drop reads, so Recover must refuse.
	dir2 := t.TempDir()
	for _, p := range segs {
		if !batchSegs[p] {
			copyFile(t, p, filepath.Join(dir2, filepath.Base(p)))
		}
	}
	if _, l2, err := Recover(dir2, Options{}); err == nil {
		l2.Close()
		t.Fatal("recovery accepted a basis checkpoint missing its uncovered batches")
	}
}

// TestRecoveredLogCheckpointsAgain: a log recovered past a checkpoint must
// keep working — append, checkpoint (rebased segment accounting), recover
// — across several generations.
func TestRecoveredLogCheckpointsAgain(t *testing.T) {
	dir := t.TempDir()
	l := ckptLog(t, dir, Options{SegmentBytes: 2048, Fsync: SyncNever}, 8, 8)
	if _, err := l.AppendCheckpoint(3, 40, []byte("gen1")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	for gen := 2; gen <= 4; gen++ {
		rec, l, err := Recover(dir, Options{SegmentBytes: 2048, Fsync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			t.Fatal("live log did not reopen")
		}
		for _, b := range testBatches(4, 8) {
			if err := l.AppendBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		// Everything consumed: the pending suffix from recovery plus the 4
		// new batches.
		state := []byte(fmt.Sprintf("gen%d", gen))
		reads := rec.CheckpointReads + int64(rec.Reads) + 4*8
		if _, err := l.AppendCheckpoint(0, reads, state); err != nil {
			t.Fatal(err)
		}
		l.Close()
		rec2 := recoverDir(t, dir)
		if !bytes.Equal(rec2.Checkpoint, state) || len(rec2.Batches) != 0 {
			t.Fatalf("gen %d: state %q with %d pending, want %q with 0", gen, rec2.Checkpoint, len(rec2.Batches), state)
		}
		if rec2.CheckpointReads != reads {
			t.Fatalf("gen %d: reads %d, want %d", gen, rec2.CheckpointReads, reads)
		}
		segs, _ := SegmentFiles(dir)
		if len(segs) != 2 {
			t.Fatalf("gen %d: %d segments survive a fully-covering checkpoint, want checkpoint + open tail", gen, len(segs))
		}
	}
}

// TestGroupCommitConcurrentAppends: many producers appending under
// fsync=always, sharing the group-commit leader's fsyncs, must all be
// acked durable, and the journal must hold every batch.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testHeader(), Options{Fsync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const producers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batches := testBatches(each, 3)
			for _, b := range batches {
				if err := l.AppendBatch(b); err != nil {
					errs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	l.Close()
	rec := recoverDir(t, dir)
	if len(rec.Batches) != producers*each || rec.Reads != producers*each*3 {
		t.Errorf("recovered %d batches / %d reads, want %d/%d",
			len(rec.Batches), rec.Reads, producers*each, producers*each*3)
	}
}

// TestWaitDurableAfterClose: a clean Close covers every prior append, so
// late WaitDurable calls return nil instead of deadlocking or failing.
func TestWaitDurableAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testHeader(), Options{Fsync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.AppendBatchAsync(testBatches(1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 0 {
		t.Fatalf("seq = %d, want positive under SyncAlways", seq)
	}
	l.Close()
	if err := l.WaitDurable(seq); err != nil {
		t.Errorf("WaitDurable after clean Close: %v", err)
	}
}

// TestSyncNeverAsyncIsZero: under SyncNever there is nothing to wait for
// and the async path must say so.
func TestSyncNeverAsyncIsZero(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testHeader(), Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, err := l.AppendBatchAsync(testBatches(1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Errorf("seq = %d under SyncNever, want 0", seq)
	}
	if err := l.WaitDurable(seq); err != nil {
		t.Errorf("WaitDurable(0): %v", err)
	}
}

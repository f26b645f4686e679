package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/ckpt"
	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wal"
)

// crashedDataDir leaves a crashed daemon's data directory behind: live
// sessions that journaled checkpoints and then a suffix of batches past
// the last one, plus finished sessions. It returns the options a restart
// boots with; their DataDir is the crashed directory.
func crashedDataDir(t *testing.T, live, finished int) Options {
	t.Helper()
	tr, _, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	opts.CheckpointEvery = len(tr.Reads) / 5
	opts.PublishEvery = 500
	srv := newTestServer(t, opts)
	cut := len(tr.Reads) * 7 / 10
	for i := 0; i < live+finished; i++ {
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		reads := tr.Reads
		if i < live {
			reads = reads[:cut]
		}
		for _, b := range chunkReads(reads, 16) {
			if err := sess.Enqueue(b); err != nil {
				t.Fatal(err)
			}
		}
		waitDrained(t, sess)
		if i >= live {
			if _, err := sess.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash: the server is abandoned with its live logs open.
	return opts
}

// TestRecoveryReleasesLogInput: once New returns, the booted server holds
// the recovered engines and nothing of the input they were rebuilt from —
// no checkpoint blob, no suffix batch and no segment buffer the scan read
// of any session stays reachable, so batch payloads held undecoded until
// the scan ends do not pin their segments.
func TestRecoveryReleasesLogInput(t *testing.T) {
	opts := crashedDataDir(t, 4, 2)
	var mu sync.Mutex
	var blobs, segBufs []weak.Pointer[byte]
	var batches []weak.Pointer[reader.TagRead]
	wal.SegmentRead = func(data []byte) {
		mu.Lock()
		defer mu.Unlock()
		if len(data) > 0 {
			segBufs = append(segBufs, weak.Make(&data[0]))
		}
	}
	t.Cleanup(func() { wal.SegmentRead = nil })
	watchRecovered(t, func(rec *wal.Recovered) {
		mu.Lock()
		defer mu.Unlock()
		if len(rec.Checkpoint) > 0 {
			blobs = append(blobs, weak.Make(&rec.Checkpoint[0]))
		}
		for _, b := range rec.Batches {
			if len(b) > 0 {
				batches = append(batches, weak.Make(&b[0]))
			}
		}
	})
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().SessionsRecovered; got != 6 {
		t.Fatalf("recovered %d sessions, want 6", got)
	}
	if len(blobs) < 4 || len(batches) == 0 || len(segBufs) <= len(blobs) {
		t.Fatalf("recovery yielded %d checkpoints, %d suffix batches and %d segment buffers; the scene exercises nothing",
			len(blobs), len(batches), len(segBufs))
	}
	for k := 0; k < 5; k++ {
		runtime.GC()
	}
	for i, p := range blobs {
		if p.Value() != nil {
			t.Errorf("checkpoint blob %d of %d still reachable after boot", i, len(blobs))
		}
	}
	for i, p := range batches {
		if p.Value() != nil {
			t.Errorf("suffix batch %d of %d still reachable after boot", i, len(batches))
		}
	}
	for i, p := range segBufs {
		if p.Value() != nil {
			t.Errorf("segment buffer %d of %d still reachable after boot", i, len(segBufs))
		}
	}
	runtime.KeepAlive(srv)
}

// TestRecoverySupersededBytes: a boot reports the batch-record bytes it
// scanned but left undecoded because a checkpoint covers them. A stale
// pre-checkpoint segment that a crash mid-truncation left in front of the
// log adds exactly its batch records to the count, and a log with no
// checkpoint supersedes nothing.
func TestRecoverySupersededBytes(t *testing.T) {
	cs := crashScenes(t)[1] // warehouse-aisle
	cs.segBytes = 32 << 10
	batches, segs, _ := writeCheckpointedWAL(t, cs, 8, len(cs.reads)/3)
	firstIdx := segFileIndex(t, segs[0])
	if firstIdx < 2 {
		t.Fatal("no room for a stale segment in front of the surviving log")
	}
	stale := miniLogSegments(t, cs, batches[:3], 0)
	if len(stale) != 1 {
		t.Fatalf("stale material spans %d segments, want 1", len(stale))
	}
	infos, err := wal.InspectSegment(stale[0])
	if err != nil {
		t.Fatal(err)
	}
	staleBytes := int64(0)
	for _, ri := range infos[1:] { // the header record, then the batches
		staleBytes += ri.End - ri.Offset
	}
	boot := func(segs []string, stale string) Stats {
		t.Helper()
		dataDir := t.TempDir()
		dst := filepath.Join(dataDir, "s000001")
		copyTruncated(t, segs, dst, len(segs)-1, mustSize(t, segs[len(segs)-1]))
		if stale != "" {
			data, err := os.ReadFile(stale)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, fmt.Sprintf("wal-%08d.seg", firstIdx-1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, sess := bootRecovered(t, cs, dataDir)
		if sess == nil {
			t.Fatal("session not recovered")
		}
		return srv.Stats()
	}
	clean, withStale := boot(segs, ""), boot(segs, stale[0])
	if withStale.ReadsRecovered != clean.ReadsRecovered || withStale.SuffixReadsReplayed != clean.SuffixReadsReplayed {
		t.Fatal("the stale segment changed what the boot recovered")
	}
	if got := withStale.RecoverySupersededBytes - clean.RecoverySupersededBytes; got != staleBytes || withStale.RecoverySupersededBytes <= 0 {
		t.Errorf("superseded %d bytes with the stale segment and %d without; want a difference of its %d batch-record bytes",
			withStale.RecoverySupersededBytes, clean.RecoverySupersededBytes, staleBytes)
	}

	_, plain, _ := writeFullWAL(t, cs, 8)
	if got := boot(plain, "").RecoverySupersededBytes; got != 0 {
		t.Errorf("a log with no checkpoint superseded %d bytes, want 0", got)
	}
}

// snapshotMs masks the one wall-clock field of an /order body.
var snapshotMs = regexp.MustCompile(`"snapshot_ms":[^,}]*`)

// TestRecoveryDeterministicAcrossWorkers: recovery fans sessions out
// across the scheduler, but a boot on one worker and a boot on the whole
// pool must come up identical — the same sessions under the same IDs, the
// same eviction order, the same counters, and /order bodies equal byte for
// byte apart from the snapshot's measured latency.
func TestRecoveryDeterministicAcrossWorkers(t *testing.T) {
	opts := crashedDataDir(t, 4, 2)
	one := sched.New(1)
	defer one.Stop()
	boot := func(sc *sched.Scheduler) (*Server, Stats, map[string]string) {
		o := opts
		o.DataDir = t.TempDir()
		if err := os.CopyFS(o.DataDir, os.DirFS(opts.DataDir)); err != nil {
			t.Fatal(err)
		}
		o.Scheduler = sc
		srv := newTestServer(t, o)
		st := srv.Stats()
		st.UptimeSeconds, st.ReadsPerSecond, st.AvgSnapshotMs, st.RecoverySeconds = 0, 0, 0, 0
		// The /metrics-only fields describe the process and the scheduler
		// under test, not what the boot recovered.
		st.WALBytes, st.WALFsyncs = 0, 0
		st.SchedWorkers, st.SchedIdle, st.SchedQueued = 0, 0, 0
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		bodies := map[string]string{}
		for _, id := range srv.order {
			// A refresh snapshots live sessions' restored engines too;
			// finished ones answer with their rebuilt final snapshot.
			resp, err := ts.Client().Get(ts.URL + "/v1/sessions/" + id + "/order?refresh=1")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("session %s /order: %s %s", id, resp.Status, body)
			}
			bodies[id] = snapshotMs.ReplaceAllString(string(body), `"snapshot_ms":0`)
		}
		return srv, st, bodies
	}
	serial, serialStats, serialBodies := boot(one)
	pooled, pooledStats, pooledBodies := boot(sched.Default())

	if len(serial.order) != 6 || !reflect.DeepEqual(serial.order, pooled.order) {
		t.Fatalf("session order: 1 worker %v, pool %v", serial.order, pooled.order)
	}
	if serial.nextID != pooled.nextID {
		t.Errorf("next ID: 1 worker %d, pool %d", serial.nextID, pooled.nextID)
	}
	if serialStats != pooledStats {
		t.Errorf("stats differ:\n  1 worker %+v\n  pool     %+v", serialStats, pooledStats)
	}
	for id, want := range serialBodies {
		if got := pooledBodies[id]; got != want {
			t.Errorf("session %s /order differs:\n  1 worker %s\n  pool     %s", id, want, got)
		}
	}
}

// TestVersion3CheckpointFailsOneSession: a data directory holding a log
// whose checkpoint record is CRC-valid but stamped with the retired
// engine checkpoint version 3 still boots. That one session comes up
// finished, holding an error that names the version — GET
// /v1/sessions/{id} reports it — and its segment files stay on disk
// untouched. The live session beside it recovers and resumes to the
// offline replay.
func TestVersion3CheckpointFailsOneSession(t *testing.T) {
	tr, want, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	half := len(tr.Reads) / 2
	healthy, err := newTestServer(t, opts).CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Enqueue(tr.Reads[:half]); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, healthy)
	// Crash: that server is abandoned with its log open.

	// The v3 log: a batch, a checkpoint covering it whose first shard's
	// engine version byte reads 3, and a batch past the checkpoint.
	dir := filepath.Join(opts.DataDir, "s000002")
	log, err := wal.Create(dir, tr.Header, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, opts.Config, false, false), deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prefix := tr.Reads[:half]
	if err := log.AppendBatch(prefix); err != nil {
		t.Fatal(err)
	}
	if err := se.Consume(prefix); err != nil {
		t.Fatal(err)
	}
	blob := se.Checkpoint(nil)
	// The version byte follows the sharded version (u8), the shard count
	// (u32) and the first shard's ID (u64).
	const engineVersionAt = 1 + 4 + 8
	if blob[engineVersionAt] != 4 {
		t.Fatalf("engine checkpoint version %d, want 4", blob[engineVersionAt])
	}
	blob[engineVersionAt] = 3
	if _, err := log.AppendCheckpoint(0, int64(len(prefix)), blob); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Reads[half : half+100]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	segments := func() map[string]string {
		t.Helper()
		segs, err := wal.SegmentFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(segs))
		for _, path := range segs {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(path)] = string(data)
		}
		return out
	}
	before := segments()

	srv, err := New(opts)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if got := srv.Stats().SessionsRecovered; got != 2 {
		t.Fatalf("recovered %d sessions, want 2", got)
	}
	bad, ok := srv.Session("s000002")
	if !ok {
		t.Fatal("the version-3 session was not brought up")
	}
	if !bad.finished() {
		t.Error("the version-3 session is not finished")
	}
	if err := bad.Err(); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "engine checkpoint version 3") {
		t.Errorf("version-3 session error %v, want ckpt.ErrCorrupt naming version 3", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var st SessionStats
	getJSON(t, ts, "/v1/sessions/s000002", http.StatusOK, &st)
	if !st.Finished || !strings.Contains(st.Error, "engine checkpoint version 3") {
		t.Errorf("GET /v1/sessions/s000002: finished %v, error %q; want finished, naming version 3", st.Finished, st.Error)
	}
	if !reflect.DeepEqual(segments(), before) {
		t.Error("the boot changed the version-3 session's segment files")
	}

	sess, ok := srv.Session(healthy.ID)
	if !ok || sess.finished() || sess.Err() != nil {
		t.Fatalf("sibling session %s did not recover live", healthy.ID)
	}
	if err := sess.Enqueue(tr.Reads[half:]); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	gotX, gotY := snapOrders(snap)
	if !slices.Equal(gotX, trace.EncodeEPCs(want.XOrder)) || !slices.Equal(gotY, trace.EncodeEPCs(want.YOrder)) {
		t.Error("sibling session diverged from the offline replay")
	}
}

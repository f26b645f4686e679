package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
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

// segmentBytes maps each segment file of a session log to its bytes.
func segmentBytes(t *testing.T, dir string) map[string]string {
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

// retireFirstBatch rewrites the first batch record of a session log as
// the record an earlier build journaled for the same reads: record type 2
// around their NDJSON lines, with its length and CRC-32C recomputed.
func retireFirstBatch(t *testing.T, dir string, reads []reader.TagRead) {
	t.Helper()
	segs, err := wal.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range segs {
		infos, err := wal.InspectSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range infos {
			if ri.Type != 5 { // batch
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			payload := ndjson(t, reads)
			frame := binary.LittleEndian.AppendUint32([]byte{2}, uint32(len(payload)))
			crc := crc32.Checksum(append([]byte{2}, payload...), crc32.MakeTable(crc32.Castagnoli))
			frame = binary.LittleEndian.AppendUint32(frame, crc)
			out := append(append(append(bytes.Clone(data[:ri.Offset]), frame...), payload...), data[ri.End:]...)
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no batch record in %s", dir)
}

// TestRetiredBatchRecordFailsOneSession: a data directory written partly
// by an earlier build holds batch records of the retired NDJSON type 2.
// Where a checkpoint covers such a record, the session recovers as if it
// were any other covered record. Where recovery would replay it, that one
// session comes up finished holding wal.ErrRetiredBatch — shown by GET
// /v1/sessions/{id} and answered by /order with a 409 — and its segment
// files stay byte-identical. The live session beside them recovers and
// resumes to the offline replay.
func TestRetiredBatchRecordFailsOneSession(t *testing.T) {
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

	// s000002: the first half and 100 more reads journaled, then a
	// checkpoint of the first half alone, so the uncovered batch keeps the
	// covered one's segment on disk. The first half becomes a type-2 record.
	covered := filepath.Join(opts.DataDir, "s000002")
	log, err := wal.Create(covered, tr.Header, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, opts.Config, false, false), deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Reads[:half]); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Reads[half : half+100]); err != nil {
		t.Fatal(err)
	}
	if err := se.Consume(tr.Reads[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendCheckpoint(1, int64(half), se.Checkpoint(nil)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	retireFirstBatch(t, covered, tr.Reads[:half])

	// s000003: the earlier build journaled the first half, uncovered.
	uncovered := filepath.Join(opts.DataDir, "s000003")
	if log, err = wal.Create(uncovered, tr.Header, wal.Options{Fsync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Reads[:half]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	retireFirstBatch(t, uncovered, tr.Reads[:half])
	before := segmentBytes(t, uncovered)

	srv, err := New(opts)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if got := srv.Stats().SessionsRecovered; got != 3 {
		t.Fatalf("recovered %d sessions, want 3", got)
	}
	bad, ok := srv.Session("s000003")
	if !ok {
		t.Fatal("the session with a replayed type-2 record was not brought up")
	}
	if !bad.finished() || !errors.Is(bad.Err(), wal.ErrRetiredBatch) {
		t.Errorf("type-2 session: finished %v, error %v; want finished holding wal.ErrRetiredBatch", bad.finished(), bad.Err())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var st SessionStats
	getJSON(t, ts, "/v1/sessions/s000003", http.StatusOK, &st)
	if !st.Finished || !strings.Contains(st.Error, "type 2") {
		t.Errorf("GET /v1/sessions/s000003: finished %v, error %q; want finished, naming type 2", st.Finished, st.Error)
	}
	var e errorResponse
	getJSON(t, ts, "/v1/sessions/s000003/order", http.StatusConflict, &e)
	if !strings.Contains(e.Error, "type 2") {
		t.Errorf("GET /v1/sessions/s000003/order: error %q, want one naming type 2", e.Error)
	}
	if !reflect.DeepEqual(segmentBytes(t, uncovered), before) {
		t.Error("the boot changed the segment files of the session it could not replay")
	}

	for _, id := range []string{healthy.ID, "s000002"} {
		sess, ok := srv.Session(id)
		if !ok || sess.finished() || sess.Err() != nil {
			t.Fatalf("session %s did not recover live", id)
		}
		from := half
		if id == "s000002" {
			from += 100
		}
		if got := sess.Consumed(); got != int64(from) {
			t.Fatalf("session %s recovered %d reads, want %d", id, got, from)
		}
		if err := sess.Enqueue(tr.Reads[from:]); err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		gotX, gotY := snapOrders(snap)
		if !slices.Equal(gotX, trace.EncodeEPCs(want.XOrder)) || !slices.Equal(gotY, trace.EncodeEPCs(want.YOrder)) {
			t.Errorf("session %s diverged from the offline replay", id)
		}
	}
}

// TestNonCanonicalNumbersRecoverBitExact: the journal keeps the values a
// client's NDJSON decoded to, not its spelling. Reads POSTed as `1.50`,
// `1e0`-style exponents, `-0`, 17-digit mantissas and subnormals recover
// after a crash bit for bit as the server decoded them — -0 stays -0 —
// and the resumed session's final orders match the offline replay of the
// decoded reads.
func TestNonCanonicalNumbersRecoverBitExact(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.Handler())
	hdr, err := json.Marshal(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	var created CreateResponse
	postJSON(t, ts, "/v1/sessions", hdr, http.StatusCreated, &created)

	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	zeros := func(v float64) string {
		s := num(v)
		if !strings.Contains(s, ".") {
			s += "."
		}
		return s + "0"
	}
	spell := []func(rd reader.TagRead) (tm, ph, rssi string){
		func(rd reader.TagRead) (string, string, string) { // trailing zeros
			return zeros(rd.Time), strconv.FormatFloat(rd.Phase, 'f', 20, 64), zeros(rd.RSSI)
		},
		func(rd reader.TagRead) (string, string, string) { // exponents
			return strconv.FormatFloat(rd.Time, 'e', -1, 64), "1e0", strconv.FormatFloat(rd.RSSI, 'E', -1, 64)
		},
		func(rd reader.TagRead) (string, string, string) { // negative zero
			return num(rd.Time), "-0", num(rd.RSSI)
		},
		func(rd reader.TagRead) (string, string, string) { // 17 significant digits
			return strconv.FormatFloat(rd.Time, 'g', 17, 64), strconv.FormatFloat(rd.Phase, 'g', 17, 64), num(rd.RSSI)
		},
		func(rd reader.TagRead) (string, string, string) { // subnormals
			return num(rd.Time), "4.9406564584124654e-324", num(rd.RSSI)
		},
	}
	cut := len(tr.Reads) * 3 / 5
	var decoded []reader.TagRead
	for start := 0; start < cut; start += 300 {
		var body []byte
		for i, rd := range tr.Reads[start:min(start+300, cut)] {
			tm, ph, rssi := spell[(start+i)%len(spell)](rd)
			line := fmt.Sprintf(`{"epc":"%s","t":%s,"phase":%s,"rssi":%s,"ch":%d,"rdr":%d}`,
				rd.EPC, tm, ph, rssi, rd.Channel, rd.Reader)
			got, err := trace.UnmarshalRead([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			decoded = append(decoded, got)
			body = append(append(body, line...), '\n')
		}
		postJSON(t, ts, "/v1/sessions/"+created.ID+"/reads", body, http.StatusOK, nil)
	}
	if !math.Signbit(decoded[2].Phase) || decoded[4].Phase != math.SmallestNonzeroFloat64 {
		t.Fatalf("the spellings decoded to phases %v and %v, want -0 and the smallest subnormal", decoded[2].Phase, decoded[4].Phase)
	}
	ts.Close()
	// Crash: the server is abandoned with its log open.

	var recovered []reader.TagRead
	watchRecovered(t, func(rec *wal.Recovered) {
		for _, b := range rec.Batches {
			recovered = append(recovered, b...)
		}
	})
	srv = newTestServer(t, opts)
	if len(recovered) != len(decoded) {
		t.Fatalf("recovered %d reads, posted %d", len(recovered), len(decoded))
	}
	for i, got := range recovered {
		rd := decoded[i]
		if got.EPC != rd.EPC || got.Channel != rd.Channel || got.Reader != rd.Reader ||
			math.Float64bits(got.Time) != math.Float64bits(rd.Time) ||
			math.Float64bits(got.Phase) != math.Float64bits(rd.Phase) ||
			math.Float64bits(got.RSSI) != math.Float64bits(rd.RSSI) {
			t.Fatalf("read %d recovered as %+v, decoded as %+v", i, got, rd)
		}
	}

	sess, ok := srv.Session(created.ID)
	if !ok {
		t.Fatal("session not recovered")
	}
	if err := sess.Enqueue(tr.Reads[cut:]); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, opts.Config, false, false), deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := se.Localize(append(decoded, tr.Reads[cut:]...))
	if err != nil {
		t.Fatal(err)
	}
	gotX, gotY := snapOrders(snap)
	if !slices.Equal(gotX, trace.EncodeEPCs(want.XOrder)) || !slices.Equal(gotY, trace.EncodeEPCs(want.YOrder)) {
		t.Error("the recovered session diverged from the offline replay of the decoded reads")
	}
}

// TestVersion5CheckpointFailsOneSession: a data directory holding a log
// whose checkpoint record is CRC-valid but stamped with the retired
// engine checkpoint version 5, the last that journaled a shard's
// finalized set and the fields a checkpoint's recompute made constant,
// still boots. That one session comes up finished, holding an error that
// names the version — GET /v1/sessions/{id} reports it — and its segment
// files stay on disk untouched. The live session beside it recovers and
// resumes to the offline replay.
func TestVersion5CheckpointFailsOneSession(t *testing.T) {
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

	// The v5 log: a batch, a checkpoint covering it whose first shard's
	// engine version byte reads 5, and a batch past the checkpoint.
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
	if blob[engineVersionAt] != 6 {
		t.Fatalf("engine checkpoint version %d, want 6", blob[engineVersionAt])
	}
	blob[engineVersionAt] = 5
	if _, err := log.AppendCheckpoint(0, int64(len(prefix)), blob); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Reads[half : half+100]); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	before := segmentBytes(t, dir)

	srv, err := New(opts)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if got := srv.Stats().SessionsRecovered; got != 2 {
		t.Fatalf("recovered %d sessions, want 2", got)
	}
	bad, ok := srv.Session("s000002")
	if !ok {
		t.Fatal("the version-5 session was not brought up")
	}
	if !bad.finished() {
		t.Error("the version-5 session is not finished")
	}
	if err := bad.Err(); !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "engine checkpoint version 5") {
		t.Errorf("version-5 session error %v, want ckpt.ErrCorrupt naming version 5", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var st SessionStats
	getJSON(t, ts, "/v1/sessions/s000002", http.StatusOK, &st)
	if !st.Finished || !strings.Contains(st.Error, "engine checkpoint version 5") {
		t.Errorf("GET /v1/sessions/s000002: finished %v, error %q; want finished, naming version 5", st.Finished, st.Error)
	}
	// A client polling the order must see the failure, not the 202 of a
	// session still warming up.
	for _, path := range []string{"/v1/sessions/s000002/order", "/v1/sessions/s000002/order?refresh=1"} {
		var e errorResponse
		getJSON(t, ts, path, http.StatusConflict, &e)
		if !strings.Contains(e.Error, "engine checkpoint version 5") {
			t.Errorf("GET %s: error %q, want one naming version 5", path, e.Error)
		}
	}
	if !reflect.DeepEqual(segmentBytes(t, dir), before) {
		t.Error("the boot changed the version-5 session's segment files")
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

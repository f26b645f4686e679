package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/reader"
	"repro/internal/sched"
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
// no checkpoint blob and no suffix batch of any session stays reachable.
func TestRecoveryReleasesLogInput(t *testing.T) {
	opts := crashedDataDir(t, 4, 2)
	var mu sync.Mutex
	var blobs []weak.Pointer[byte]
	var batches []weak.Pointer[reader.TagRead]
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
	if len(blobs) < 4 || len(batches) == 0 {
		t.Fatalf("recovery yielded %d checkpoints and %d suffix batches; the scene exercises nothing", len(blobs), len(batches))
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
	runtime.KeepAlive(srv)
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

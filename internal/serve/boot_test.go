package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// bootCopy boots a server over a private copy of a crashed data directory.
func bootCopy(t *testing.T, opts Options) *Server {
	t.Helper()
	o := opts
	o.DataDir = t.TempDir()
	if err := os.CopyFS(o.DataDir, os.DirFS(opts.DataDir)); err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, o)
}

// TestReplayFailureAnswersConflict: a session whose journaled suffix
// fails mid-replay holds no snapshot of the reads before the failure, so
// /order answers 409 with its error rather than a stale periodic
// snapshot.
func TestReplayFailureAnswersConflict(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.PublishEvery = 500
	dir := filepath.Join(opts.DataDir, "s000001")
	log, err := wal.Create(dir, tr.Header, wal.Options{Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(tr.Reads[:2*opts.PublishEvery]); err != nil {
		t.Fatal(err)
	}
	bad := []reader.TagRead{tr.Reads[2*opts.PublishEvery]}
	bad[0].Reader = 99
	if err := log.AppendBatch(bad); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, opts)
	sess, ok := srv.Session("s000001")
	if !ok || !sess.finished() || sess.Err() == nil {
		t.Fatal("the session did not come up failed")
	}
	if sess.Latest() != nil {
		t.Error("the failed session kept a snapshot of its replayed reads")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/sessions/s000001/order", "/v1/sessions/s000001/order?refresh=1"} {
		var e errorResponse
		getJSON(t, ts, path, http.StatusConflict, &e)
		if !strings.Contains(e.Error, "unknown reader ID 99") {
			t.Errorf("GET %s: error %q, want the replay failure", path, e.Error)
		}
	}
}

// TestLifecycleBootKeepsReplayCadence: with the tag lifecycle on, each
// snapshot sweeps — it emits and evicts — so a boot keeps the live
// publish cadence over the replayed suffix. The booted session finalizes
// and emits exactly what a reference boot does: the engine restored from
// the same checkpoint, fed the same suffix batches, snapshotting every
// PublishEvery reads.
func TestLifecycleBootKeepsReplayCadence(t *testing.T) {
	cs := lifecycleCrashScene(t)
	opts := Options{
		Config:          cs.cfg,
		DataDir:         t.TempDir(),
		Fsync:           wal.SyncNever,
		PublishEvery:    len(cs.reads) / 20,
		CheckpointEvery: len(cs.reads) / 4,
		FinalizeAfter:   2.0,
		FinalizeMargin:  1.0,
	}
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(cs.header)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range chunkReads(cs.reads[:len(cs.reads)*9/10], 10) {
		if err := sess.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, sess)
	// Crash: the server is abandoned with its log open.

	var checkpoint []byte
	var suffix [][]reader.TagRead
	watchRecovered(t, func(rec *wal.Recovered) {
		checkpoint = bytes.Clone(rec.Checkpoint)
		suffix = slices.Clone(rec.Batches)
	})
	srv2 := bootCopy(t, opts)
	if checkpoint == nil {
		t.Fatal("the crashed log holds no checkpoint")
	}

	ref, err := deploy.NewSharded(deploy.FromHeader(cs.header, cs.cfg, false, false), deploy.Options{
		Finalize: stpp.FinalizePolicy{After: opts.FinalizeAfter, Margin: opts.FinalizeMargin},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Restore(checkpoint); err != nil {
		t.Fatal(err)
	}
	restored := ref.Finalized()
	var last *deploy.GlobalResult
	since := 0
	for _, b := range suffix {
		if err := ref.Consume(b); err != nil {
			t.Fatal(err)
		}
		if since += len(b); since >= opts.PublishEvery {
			since = 0
			if last, err = ref.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last == nil || ref.Finalized() <= restored {
		t.Fatalf("the reference boot finalized %d tags past the checkpoint's %d; the suffix sweeps nothing",
			ref.Finalized(), restored)
	}

	booted, ok := srv2.Session(sess.ID)
	if !ok || booted.finished() || booted.Err() != nil {
		t.Fatal("session did not recover live")
	}
	if got, want := srv2.Stats().TagsFinalized, int64(ref.Finalized()); got != want {
		t.Errorf("boot finalized %d tags, reference boot %d", got, want)
	}
	snap := booted.Latest()
	if snap == nil {
		t.Fatal("the lifecycle boot published no snapshot")
	}
	if got, want := emittedEPCs(snap.Result), emittedEPCs(last); !slices.Equal(got, want) {
		t.Errorf("boot emitted %v, reference boot %v", got, want)
	}
}

// orderBody fetches an /order body with its wall-clock snapshot_ms masked.
func orderBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %s", path, resp.Status, body)
	}
	return snapshotMs.ReplaceAllString(string(body), `"snapshot_ms":0`)
}

// TestRecoveredLiveSessionDetectsOnDemand: a boot replays a live session's
// suffix without publishing. The session comes up with no snapshot (GET
// /order answers 202), the boot's only snapshots are the finished
// sessions' finals, a refresh answers the same bytes the crashed process
// answered for the same reads — the offline replay's orders — and the
// first batch after boot publishes, because the replay owed a publish.
func TestRecoveredLiveSessionDetectsOnDemand(t *testing.T) {
	tr, want, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	opts.PublishEvery = 500
	cut := len(tr.Reads) * 7 / 10
	// One checkpoint, early enough that the suffix past it spans several
	// publish intervals.
	opts.CheckpointEvery = cut / 3
	srv := newTestServer(t, opts)
	live, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range chunkReads(tr.Reads[:cut], 16) {
		if err := live.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	waitDrained(t, live)
	finished, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	if err := finished.Enqueue(tr.Reads); err != nil {
		t.Fatal(err)
	}
	if _, err := finished.Finish(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	crashed := orderBody(t, ts, "/v1/sessions/"+live.ID+"/order?refresh=1")
	ts.Close()
	// Crash: the server is abandoned with the live log open.

	var mu sync.Mutex
	suffix := map[bool]int{} // suffix reads by whether the log is finished
	watchRecovered(t, func(rec *wal.Recovered) {
		mu.Lock()
		defer mu.Unlock()
		suffix[rec.Finished] += rec.Reads
	})
	srv2 := bootCopy(t, opts)
	if suffix[false] < 2*opts.PublishEvery {
		t.Fatalf("the live suffix holds %d reads; the boot owes no publish at cadence %d", suffix[false], opts.PublishEvery)
	}
	sess, ok := srv2.Session(live.ID)
	if !ok || sess.finished() || sess.Err() != nil {
		t.Fatal("live session did not recover live")
	}
	if sess.Latest() != nil {
		t.Error("the recovered live session published a snapshot at boot")
	}
	if got := srv2.Stats().Snapshots; got != 1 {
		t.Errorf("boot took %d snapshots, want 1 (the finished session's final)", got)
	}
	fin, ok := srv2.Session(finished.ID)
	if !ok || fin.Latest() == nil || !fin.Latest().Final {
		t.Fatal("finished session did not recover its final snapshot")
	}
	if x, y := snapOrders(fin.Latest()); !slices.Equal(x, trace.EncodeEPCs(want.XOrder)) || !slices.Equal(y, trace.EncodeEPCs(want.YOrder)) {
		t.Error("finished session's final diverged from the offline replay")
	}

	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var st SessionStats
	getJSON(t, ts2, "/v1/sessions/"+live.ID, http.StatusOK, &st)
	if st.Snapshots || st.Consumed != int64(cut) {
		t.Errorf("GET /v1/sessions/%s: has_snapshot %v, consumed %d; want false, %d", live.ID, st.Snapshots, st.Consumed, cut)
	}
	var e errorResponse
	getJSON(t, ts2, "/v1/sessions/"+live.ID+"/order", http.StatusAccepted, &e)

	got := orderBody(t, ts2, "/v1/sessions/"+live.ID+"/order?refresh=1")
	if got != crashed {
		t.Errorf("refresh after boot differs from the crashed process's:\n  boot    %s\n  crashed %s", got, crashed)
	}
	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, opts.Config, false, false), deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := se.Localize(tr.Reads[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if x, y := snapOrders(sess.Latest()); !slices.Equal(x, trace.EncodeEPCs(ref.XOrder)) || !slices.Equal(y, trace.EncodeEPCs(ref.YOrder)) {
		t.Error("refresh after boot diverged from the offline replay of the journaled reads")
	}

	// On a second boot of the same image, the first batch publishes.
	srv3 := bootCopy(t, opts)
	sess3, _ := srv3.Session(live.ID)
	next := tr.Reads[cut : cut+16]
	if err := sess3.Enqueue(next); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, sess3)
	if snap := sess3.Latest(); snap == nil || snap.Reads != int64(cut+len(next)) {
		t.Errorf("the first post-boot batch published %+v, want a snapshot over %d reads", snap, cut+len(next))
	}
	if got := srv3.Stats().Snapshots; got != 2 {
		t.Errorf("%d snapshots after the first post-boot batch, want 2", got)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wal"
)

// aisleTrace builds a small two-reader warehouse-aisle trace plus the
// offline ground result every daemon replay must reproduce.
func aisleTrace(t testing.TB, seed int64) (*trace.Trace, *deploy.GlobalResult, Options) {
	t.Helper()
	o := scenario.DefaultAisleOpts(seed)
	o.Tags = 8
	ms, err := scenario.WarehouseAisle(o)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		Header: trace.Header{Scenario: "aisle", Seed: seed, Readers: ms.ReaderMetas()},
		Reads:  reads,
	}
	opts := Options{Config: ms.Readers[0].Scene.STPPConfig()}

	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, opts.Config, false, false), deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := se.Localize(reads)
	if err != nil {
		t.Fatal(err)
	}
	return tr, want, opts
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestConcurrentProducers drives one session's ShardedEngine through the
// serve queue from many concurrent producers (run under -race in CI): the
// X order — a pure function of the read multiset — must still match the
// offline replay, and no read may be lost.
func TestConcurrentProducers(t *testing.T) {
	tr, want, opts := aisleTrace(t, 5)
	opts.PublishEvery = 500
	opts.QueueBatches = 4 // small queue: producers contend and stall
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Stripe the trace across producers in 31-read slices.
			for start := p * 31; start < len(tr.Reads); start += producers * 31 {
				end := min(start+31, len(tr.Reads))
				if err := sess.Enqueue(tr.Reads[start:end]); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	// Concurrent refreshes exercise the ctrl path against live consumption.
	var rg sync.WaitGroup
	for q := 0; q < 3; q++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 5; i++ {
				sess.Refresh() // errors ("no tags yet") are fine; races are not
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	snap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Reads != int64(len(tr.Reads)) {
		t.Errorf("consumed %d reads, want %d", snap.Reads, len(tr.Reads))
	}
	// Producer interleaving permutes first-appearance order (and with it
	// the Y pivot), but the X order sorts per-tag bottom times — a pure
	// function of the read multiset — so it must be identical.
	if !reflect.DeepEqual(snap.Result.XOrder, want.XOrder) {
		t.Errorf("X order diverged under concurrent producers:\n  live    %v\n  offline %v", snap.Result.XOrder, want.XOrder)
	}
	if len(snap.Result.YOrder) != len(want.YOrder) {
		t.Errorf("Y order lost tags: %d vs %d", len(snap.Result.YOrder), len(want.YOrder))
	}
}

// TestConsumeErrorDrainsQueue: the exported Enqueue does not pre-validate
// reader IDs, so a consumer-side Consume error must surface through
// Finish — and the loop's shutdown must drain whatever was still queued
// so no reads stay pinned and the depth gauge returns to zero.
func TestConsumeErrorDrainsQueue(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	bad := []reader.TagRead{{Reader: 99}}
	if err := sess.Enqueue(bad); err != nil {
		t.Fatal(err)
	}
	// More batches may land behind the poisoned one; they must drain.
	for start := 0; start < 2000; start += 100 {
		if err := sess.Enqueue(tr.Reads[start : start+100]); err != nil {
			break // closed once the consumer errored — fine
		}
	}
	if _, err := sess.Finish(); err == nil {
		t.Fatal("Finish succeeded after an unconsumable batch")
	}
	if q := sess.Queued(); q != 0 {
		t.Errorf("queue depth %d after shutdown, want 0", q)
	}
}

// TestPublishEveryZeroDisablesPeriodic: PublishEvery 0 must mean exactly
// what the -publish flag documents — no periodic snapshots, only refresh
// and finish.
func TestPublishEveryZeroDisablesPeriodic(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.PublishEvery = 0
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Enqueue(tr.Reads); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Final {
		t.Error("finish snapshot not final")
	}
	if got := srv.Stats().Snapshots; got != 1 {
		t.Errorf("%d snapshots taken with PublishEvery=0, want only the final one", got)
	}
}

// TestFinishedSessionsEvictAndSlim: finished sessions drop their engine
// state (per-tag profiles) and the registry evicts the oldest finished
// sessions beyond RetainFinished — the daemon must not grow without bound
// under session churn.
func TestFinishedSessionsEvictAndSlim(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.RetainFinished = 2
	srv := newTestServer(t, opts)

	var ids []string
	for i := 0; i < 5; i++ {
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Enqueue(tr.Reads[:2000]); err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range snap.Result.Shards {
			if sh.Result == nil {
				continue
			}
			for _, tag := range sh.Result.Tags {
				if tag.Profile != nil {
					t.Fatal("final snapshot retained a raw profile")
				}
			}
		}
		ids = append(ids, sess.ID)
	}
	// One more creation triggers eviction of the oldest finished ones.
	active, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	retained := 0
	for _, id := range ids {
		if _, ok := srv.Session(id); ok {
			retained++
		}
	}
	if retained > opts.RetainFinished {
		t.Errorf("%d finished sessions retained, want <= %d", retained, opts.RetainFinished)
	}
	if _, ok := srv.Session(active.ID); !ok {
		t.Error("active session evicted")
	}
	srv.DropSession(active.ID)
}

// TestBackpressureBoundsQueue: with a one-batch queue and a consumer held
// busy by snapshots, producers must observe stalls while the queue depth
// never exceeds its bound — the memory guarantee under overload.
func TestBackpressureBoundsQueue(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.QueueBatches = 1
	opts.PublishEvery = 64 // snapshot constantly: consumer slower than producer
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(opts.QueueBatches * 64)
	for start := 0; start < len(tr.Reads); start += 64 {
		end := min(start+64, len(tr.Reads))
		if err := sess.Enqueue(tr.Reads[start:end]); err != nil {
			t.Fatal(err)
		}
		if q := sess.Queued(); q > bound {
			t.Fatalf("queue depth %d exceeds bound %d", q, bound)
		}
	}
	if sess.Stalls() == 0 {
		t.Error("no stalls observed: backpressure never engaged")
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPRejectsMalformed: malformed headers, oversized read lines and
// unknown session IDs come back as 4xx errors — and never panic or wedge
// the daemon. TestDaemonModel covers malformed read lines and unknown
// reader IDs.
func TestHTTPRejectsMalformed(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Bad header JSON and malformed deployments.
	for _, body := range []string{
		"{",
		`{"bogus_field": 1}`,
		`{"readers":[{"id":1},{"id":1}]}`,
		`{"readers":[{"id":1,"x_min":5,"x_max":1}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("header %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	hdr, _ := json.Marshal(tr.Header)
	var created CreateResponse
	postJSON(t, ts, "/v1/sessions", hdr, http.StatusCreated, &created)

	// A line longer than the 1 MiB line bound after valid ones still
	// 400s, and the lines before it are enqueued (the documented
	// partial-batch semantics).
	sess, _ := srv.Session(created.ID)
	body := append(ndjson(t, tr.Reads[:10]), strings.Repeat("x", 2<<20)...)
	resp, err := http.Post(ts.URL+"/v1/sessions/"+created.ID+"/reads", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized line after 10 valid ones: status %d, want 400", resp.StatusCode)
	}
	if got := sess.Enqueued(); got != 10 {
		t.Errorf("oversized line after 10 valid ones: %d reads enqueued, want 10", got)
	}

	// Unknown session IDs 404.
	resp, err = http.Get(ts.URL + "/v1/sessions/nope/order")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
}

// TestRefreshRacingFirstBatch: a refresh that reaches the drain together
// with a session's first batch answers 202, the warming-up state. The
// drain serves the refresh before the batch, so the snapshot sees an
// empty engine; the handler must not then judge that error by a consumed
// count the batch has moved in the meantime (which answered 409).
func TestRefreshRacingFirstBatch(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	sc := sched.New(1)
	defer sc.Stop()
	opts.Scheduler = sc
	srv := newTestServer(t, opts)
	h := srv.Handler()
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker so the batch and the refresh queue up behind
	// it.
	held, release := make(chan struct{}), make(chan struct{})
	sc.Go(nil, func() { close(held); <-release })
	<-held
	if err := sess.Enqueue(tr.Reads[:200]); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+sess.ID+"/order?refresh=1", nil))
	}()
	for len(sess.ctrl) == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-served
	if rec.Code != http.StatusAccepted {
		t.Fatalf("refresh racing the first batch: status %d, want 202: %s", rec.Code, rec.Body)
	}
	waitDrained(t, sess)
	if sess.Consumed() != 200 {
		t.Fatalf("consumed %d reads, want 200", sess.Consumed())
	}
}

// TestCreateRejectsOversizedHeader: a session-create body larger than the
// WAL record bound its header is journaled under answers 413, and neither
// a session nor its log directory comes into being.
func TestCreateRejectsOversizedHeader(t *testing.T) {
	_, _, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	srv := newTestServer(t, opts)

	body := `{"scenario":"` + strings.Repeat("a", wal.MaxRecord) + `"}`
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized header: status %d, want 413: %.200s", rec.Code, rec.Body)
	}
	if n := srv.Stats().SessionsCreated; n != 0 {
		t.Errorf("oversized header created %d sessions", n)
	}
	if ents, err := os.ReadDir(opts.DataDir); err != nil || len(ents) != 0 {
		t.Errorf("oversized header left %d entries in the data dir (err %v)", len(ents), err)
	}
}

// TestDropSessionUnblocksProducers: deleting a session must free a
// producer stalled on a full queue rather than leaking it.
func TestDropSessionUnblocksProducers(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.QueueBatches = 1
	opts.PublishEvery = 1 // snapshot per batch: consumer crawls
	srv := newTestServer(t, opts)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for start := 0; start < len(tr.Reads) && err == nil; start += 32 {
			end := min(start+32, len(tr.Reads))
			err = sess.Enqueue(tr.Reads[start:end])
		}
		done <- err
	}()
	srv.DropSession(sess.ID)
	if err := <-done; err != nil && err != ErrSessionClosed {
		t.Errorf("stalled producer returned %v", err)
	}
	if _, ok := srv.Session(sess.ID); ok {
		t.Error("dropped session still registered")
	}
}

// TestFinishDropRaceOnWAL: Finish and DropSession may close one durable
// session's journal at once while a producer still journals batches into
// it. qmu guards the handle, so under -race no access is unordered, the
// log closes once, and the dropped session's directory is gone.
func TestFinishDropRaceOnWAL(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	opts.QueueBatches = 2
	srv := newTestServer(t, opts)
	for round := 0; round < 8; round++ {
		sess, err := srv.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for start := 0; start < len(tr.Reads); start += 64 {
				err := sess.Enqueue(tr.Reads[start:min(start+64, len(tr.Reads))])
				if err == ErrSessionClosed {
					return
				}
				if err != nil {
					t.Errorf("round %d: enqueue: %v", round, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			sess.Finish() // fails when the drop aborts the session first
		}()
		go func() {
			defer wg.Done()
			srv.DropSession(sess.ID)
		}()
		wg.Wait()
		if _, err := os.Stat(filepath.Join(opts.DataDir, sess.ID)); !os.IsNotExist(err) {
			t.Fatalf("round %d: dropped session's journal still on disk (stat err %v)", round, err)
		}
	}
	if n := srv.Stats().WALErrors; n != 0 {
		t.Errorf("%d WAL errors", n)
	}
}

func ndjson(t *testing.T, reads []reader.TagRead) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, rd := range reads {
		line, err := trace.MarshalRead(rd)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body []byte, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", path, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", path, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

// TestQueueDepthEquivalenceProperty: how deep a session's queue runs must
// not change what the session serves. A depth-1 queue and a depth-32
// queue whose drain is held until each round is queued whole must publish,
// checkpoint and emit on the same consumed prefixes. (TestDaemonModel
// holds the orders of depth-1 and depth-4 queues under every publish
// cadence to the offline replay.)
func TestQueueDepthEquivalenceProperty(t *testing.T) {
	tr, want, opts := aisleTrace(t, 9)
	rng := rand.New(rand.NewSource(41))

	// The durable pair: one random batch sequence through a depth-1 queue,
	// and through a depth-32 queue whose drain is held off until each
	// round is fully queued. Publish and checkpoint points must land on
	// the same consumed prefixes either way: equal snapshot counts, and
	// checkpoints journaling the same read counts.
	opts.PublishEvery, opts.CheckpointEvery = 150, 400
	rounds := depthRounds(rng, tr.Reads, opts.CheckpointEvery)
	plain := runQueueDepth(t, tr, opts, rounds, 1, false)
	held := runQueueDepth(t, tr, opts, rounds, 32, true)
	for _, r := range []queueDepthRun{plain, held} {
		if !reflect.DeepEqual(r.final.Result.XOrder, want.XOrder) {
			t.Errorf("durable queue=%d: X order diverged from the offline replay", r.queue)
		}
	}
	if len(plain.ckptReads) < 2 {
		t.Fatalf("durable run journaled %d checkpoints over %d reads; the cadence went unexercised",
			len(plain.ckptReads), len(tr.Reads))
	}
	if plain.snapshots != held.snapshots {
		t.Errorf("snapshots: %d at depth 1, %d held at depth 32", plain.snapshots, held.snapshots)
	}
	if !slices.Equal(plain.ckptReads, held.ckptReads) {
		t.Errorf("checkpoint read counts differ:\n  depth 1  %v\n  depth 32 %v", plain.ckptReads, held.ckptReads)
	}

	// The lifecycle pair: with FinalizeAfter set, every publish also
	// sweeps, emitting and evicting tags, so queue depth must leave the
	// emission stream where it was too.
	ltr, lwant, lopts := portalTrace(t)
	lopts.PublishEvery, lopts.CheckpointEvery = 150, 400
	lrounds := depthRounds(rng, ltr.Reads, lopts.CheckpointEvery)
	plain = runQueueDepth(t, ltr, lopts, lrounds, 1, false)
	held = runQueueDepth(t, ltr, lopts, lrounds, 32, true)
	for _, r := range []queueDepthRun{plain, held} {
		if !reflect.DeepEqual(r.final.Result.XOrder, lwant.XOrder) {
			t.Errorf("lifecycle queue=%d: X order diverged from the offline replay:\n  live    %v\n  offline %v",
				r.queue, r.final.Result.XOrder, lwant.XOrder)
		}
	}
	if plain.finalized == 0 || len(plain.emitted) == 0 {
		t.Fatalf("lifecycle run finalized %d and emitted %d tags; the lifecycle went unexercised",
			plain.finalized, len(plain.emitted))
	}
	if plain.finalized != held.finalized {
		t.Errorf("TagsFinalized: %d at depth 1, %d held at depth 32", plain.finalized, held.finalized)
	}
	if plain.snapshots != held.snapshots {
		t.Errorf("lifecycle snapshots: %d at depth 1, %d held at depth 32", plain.snapshots, held.snapshots)
	}
	if !reflect.DeepEqual(plain.emitted, held.emitted) {
		t.Errorf("emission streams differ:\n  depth 1  %v\n  depth 32 %v", plain.emitted, held.emitted)
	}
}

// depthRounds splits reads into random batches of 1–120 reads, grouped
// into rounds that each stay under checkpointEvery reads and within a
// depth-32 queue. A round therefore lands at most one checkpoint, which
// runQueueDepth reads back from the log before the next one reclaims it.
func depthRounds(rng *rand.Rand, reads []reader.TagRead, checkpointEvery int) [][][]reader.TagRead {
	var rounds [][][]reader.TagRead
	for pos := 0; pos < len(reads); {
		var round [][]reader.TagRead
		for total := 0; pos < len(reads) && len(round) < 32; {
			n := min(1+rng.Intn(120), len(reads)-pos)
			if total+n >= checkpointEvery {
				break
			}
			round = append(round, reads[pos:pos+n])
			pos += n
			total += n
		}
		rounds = append(rounds, round)
	}
	return rounds
}

// queueDepthRun is what one durable run of runQueueDepth served: its
// snapshot and finalized-tag counts, the read count of each checkpoint
// it journaled, its emission stream and its final snapshot.
type queueDepthRun struct {
	queue                int
	snapshots, finalized int64
	ckptReads            []int64
	emitted              []EmittedEntry
	final                *Snapshot
}

// runQueueDepth streams rounds through a durable session with a queue of
// the given depth on a one-worker scheduler. With hold, the worker is
// occupied while each round is enqueued, so the drain finds the whole
// round queued.
func runQueueDepth(t *testing.T, tr *trace.Trace, o Options, rounds [][][]reader.TagRead, queue int, hold bool) queueDepthRun {
	t.Helper()
	sc := sched.New(1)
	defer sc.Stop()
	o.QueueBatches = queue
	o.DataDir = t.TempDir()
	o.Fsync = wal.SyncNever
	o.Scheduler = sc
	srv := newTestServer(t, o)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	run := queueDepthRun{queue: queue}
	for _, round := range rounds {
		release := make(chan struct{})
		if hold {
			// Occupy the only worker so the round queues up whole.
			held := make(chan struct{})
			sc.Go(nil, func() { close(held); <-release })
			<-held
		}
		for _, b := range round {
			if err := sess.Enqueue(b); err != nil {
				t.Fatal(err)
			}
		}
		close(release)
		waitDrained(t, sess)
		segs, err := wal.SegmentFiles(filepath.Join(o.DataDir, sess.ID))
		if err != nil {
			t.Fatal(err)
		}
		last := int64(-1)
		for _, r := range walRecords(t, segs) {
			if r.info.Type == 4 { // checkpoint
				if _, last, err = wal.InspectCheckpoint(segs[r.seg], r.info); err != nil {
					t.Fatal(err)
				}
			}
		}
		if last >= 0 && (len(run.ckptReads) == 0 || run.ckptReads[len(run.ckptReads)-1] != last) {
			run.ckptReads = append(run.ckptReads, last)
		}
	}
	if run.final, err = sess.Finish(); err != nil {
		t.Fatal(err)
	}
	for i, e := range run.final.Result.Emitted {
		run.emitted = append(run.emitted, EmittedEntry{Seq: int64(i), EPC: e.EPC.String(), BottomTime: e.X.BottomTime})
	}
	st := srv.Stats()
	run.snapshots, run.finalized = st.Snapshots, st.TagsFinalized
	return run
}

// TestHTTPEndToEnd replays a trace through the full HTTP API — create,
// NDJSON ingest, intermediate order query, finish — and checks the final
// wire order against the offline replay.
func TestHTTPEndToEnd(t *testing.T) {
	tr, want, opts := aisleTrace(t, 7)
	opts.PublishEvery = 600
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hdr, _ := json.Marshal(tr.Header)
	var created CreateResponse
	postJSON(t, ts, "/v1/sessions", hdr, http.StatusCreated, &created)

	// Ingest in two NDJSON bodies, querying the order in between.
	half := len(tr.Reads) / 2
	var ing IngestResponse
	postJSON(t, ts, "/v1/sessions/"+created.ID+"/reads", ndjson(t, tr.Reads[:half]), http.StatusOK, &ing)
	if ing.Accepted != half {
		t.Errorf("first body accepted %d, want %d", ing.Accepted, half)
	}
	var mid OrderResponse
	getJSON(t, ts, "/v1/sessions/"+created.ID+"/order?refresh=1", http.StatusOK, &mid)
	if mid.Final || len(mid.XOrder) == 0 {
		t.Errorf("mid-stream order: final=%v tags=%d", mid.Final, len(mid.XOrder))
	}
	postJSON(t, ts, "/v1/sessions/"+created.ID+"/reads", ndjson(t, tr.Reads[half:]), http.StatusOK, &ing)

	var final OrderResponse
	postJSON(t, ts, "/v1/sessions/"+created.ID+"/finish", nil, http.StatusOK, &final)
	if !final.Final {
		t.Error("finish returned non-final order")
	}
	if !reflect.DeepEqual(final.XOrder, trace.EncodeEPCs(want.XOrder)) {
		t.Errorf("wire X order diverged:\n  live    %v\n  offline %v", final.XOrder, trace.EncodeEPCs(want.XOrder))
	}
	if !reflect.DeepEqual(final.YOrder, trace.EncodeEPCs(want.YOrder)) {
		t.Errorf("wire Y order diverged")
	}
	if len(final.Shards) != 2 {
		t.Errorf("expected 2 shard orders, got %d", len(final.Shards))
	}

	var stats Stats
	getJSON(t, ts, "/v1/stats", http.StatusOK, &stats)
	if stats.ReadsConsumed != int64(len(tr.Reads)) || stats.SessionsFinished != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

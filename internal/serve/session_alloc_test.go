package serve

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/reader"
	"repro/internal/sched"
)

// TestCoalescedDrainAllocs pins the opportunistic queue coalescing at
// zero allocations in steady state: draining a backlog of batches into
// one engine call must reuse the session's coalesce buffer, not build a
// fresh concatenation per drain. The first coalesced pop sizes the
// buffer; every subsequent one is garbage-free.
func TestCoalescedDrainAllocs(t *testing.T) {
	s := &Session{}
	s.qcond = sync.NewCond(&s.qmu)
	mk := func(n int) []reader.TagRead { return make([]reader.TagRead, n) }
	batches := [][]reader.TagRead{mk(256), mk(256), mk(256), mk(256)}
	push := func() {
		s.qmu.Lock()
		for _, b := range batches {
			s.q = append(s.q, b)
			s.queued.Add(int64(len(b)))
		}
		s.qmu.Unlock()
	}
	// Warm: first coalesced pop allocates the reusable buffer (and the
	// queue slice reaches steady capacity).
	push()
	if _, popped, _ := s.popBatches(math.MaxInt); popped != len(batches) {
		t.Fatalf("warmup coalesced %d batches, want %d", popped, len(batches))
	}
	allocs := testing.AllocsPerRun(100, func() {
		push()
		got, popped, _ := s.popBatches(math.MaxInt)
		if popped != len(batches) || len(got) != 4*256 {
			t.Fatalf("coalesced %d batches into %d reads", popped, len(got))
		}
	})
	if allocs != 0 {
		t.Fatalf("coalesced drain allocates %.1f/op, want 0", allocs)
	}
}

// TestCoalesceCadenceBoundary pins the boundary semantics the byte-identity
// argument rests on: a backlog is absorbed only up to the publish/checkpoint
// cadence, and the batch that crosses the boundary is included — the drain
// consumes exactly the prefix the per-batch schedule would have before
// publishing.
func TestCoalesceCadenceBoundary(t *testing.T) {
	s := &Session{}
	s.qcond = sync.NewCond(&s.qmu)
	mk := func(n int) []reader.TagRead { return make([]reader.TagRead, n) }
	s.qmu.Lock()
	for _, n := range []int{100, 100, 100, 100} {
		s.q = append(s.q, mk(n))
		s.queued.Add(int64(n))
	}
	s.qmu.Unlock()
	// limit 250: absorb 100, 100 (total 200 < 250), then include the
	// crossing batch (300 >= 250) and stop — 3 batches, not 4.
	got, popped, _ := s.popBatches(250)
	if popped != 3 || len(got) != 300 {
		t.Fatalf("popBatches(250) took %d batches / %d reads, want 3 / 300", popped, len(got))
	}
	if got2, popped2, _ := s.popBatches(250); popped2 != 1 || len(got2) != 100 {
		t.Fatalf("remainder pop took %d batches / %d reads, want 1 / 100", popped2, len(got2))
	}
}

// TestReadsPostBytes pins the bytes a steady-state ingest POST allocates:
// the 1 MiB line buffer comes from a pool, so a 256-read body costs its
// batch slice and request plumbing, not a fresh buffer. The bound holds
// under -race too, where sync.Pool drops a quarter of its Puts (about
// 256 KiB per POST on average, and 37 drops in 64 POSTs to break it); a
// buffer allocated per POST costs over 1 MiB. The session's drain is held
// off the only worker so the engine's own allocations stay out of the
// measurement.
func TestReadsPostBytes(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	sc := sched.New(1)
	defer sc.Stop()
	const warm, posts = 8, 64
	opts.Scheduler = sc
	opts.QueueBatches = warm + posts
	srv := newTestServer(t, opts)
	h := srv.Handler()
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	sc.Go(nil, func() { close(held); <-release })
	<-held
	defer func() { // before sc.Stop: the drain requeues itself as it goes
		close(release)
		waitDrained(t, sess)
	}()
	body := ndjson(t, tr.Reads[:256])
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sess.ID+"/reads", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST reads: status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < warm; i++ {
		post()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < posts; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / posts; per > 640<<10 {
		t.Fatalf("a steady-state POST allocates %d bytes, want <= %d", per, 640<<10)
	}
}

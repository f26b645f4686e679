package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/sched"
)

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

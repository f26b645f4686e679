package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	prom "repro/internal/metrics"
	"repro/internal/reader"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestEmittedPaginationEdges pins the cursor arithmetic of the emitted
// endpoint at its boundaries: a cursor at or past Total yields a
// well-formed empty final page whose next_cursor is Total (resumable,
// never a phantom position), a cursor near MaxInt64 cannot overflow into
// a negative window, and malformed cursors and limits are clean 400s.
func TestEmittedPaginationEdges(t *testing.T) {
	tr, _, opts := portalTrace(t)
	opts.PublishEvery = 2000
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hdr, _ := json.Marshal(tr.Header)
	var created CreateResponse
	postJSON(t, ts, "/v1/sessions", hdr, http.StatusCreated, &created)
	var ing IngestResponse
	postJSON(t, ts, "/v1/sessions/"+created.ID+"/reads", ndjson(t, tr.Reads), http.StatusOK, &ing)
	var final OrderResponse
	postJSON(t, ts, "/v1/sessions/"+created.ID+"/finish", nil, http.StatusOK, &final)

	var first EmittedResponse
	getJSON(t, ts, "/v1/sessions/"+created.ID+"/emitted", http.StatusOK, &first)
	total := first.Total
	if total == 0 {
		t.Fatal("no tags emitted: the pagination cases below would be vacuous")
	}

	cases := []struct {
		name        string
		query       string
		wantEntries int64
		wantNext    int64
	}{
		{"first page", "?cursor=0&limit=2", 2, 2},
		{"interior page", "?cursor=1&limit=1", 1, 2},
		{"page spanning the end", "?cursor=" + itoa(total-1) + "&limit=100", 1, total},
		{"cursor exactly at total", "?cursor=" + itoa(total), 0, total},
		{"cursor past total", "?cursor=" + itoa(total+100), 0, total},
		{"cursor at MaxInt64", "?cursor=9223372036854775807&limit=4096", 0, total},
		{"huge cursor and limit", "?cursor=9223372036854775806&limit=2048", 0, total},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p EmittedResponse
			getJSON(t, ts, "/v1/sessions/"+created.ID+"/emitted"+tc.query, http.StatusOK, &p)
			if int64(len(p.Entries)) != tc.wantEntries {
				t.Errorf("%d entries, want %d", len(p.Entries), tc.wantEntries)
			}
			if p.NextCursor != tc.wantNext {
				t.Errorf("next_cursor %d, want %d", p.NextCursor, tc.wantNext)
			}
			if p.NextCursor < 0 || p.NextCursor > p.Total {
				t.Errorf("next_cursor %d outside [0, %d]", p.NextCursor, p.Total)
			}
			if p.Total != total || !p.Final {
				t.Errorf("page provenance total=%d final=%v, want total=%d final=true",
					p.Total, p.Final, total)
			}
			for i, e := range p.Entries {
				if e.Seq != p.NextCursor-int64(len(p.Entries))+int64(i) {
					t.Errorf("entry %d has seq %d; entries are not the contiguous window ending at next_cursor", i, e.Seq)
				}
			}
		})
	}

	for _, tc := range []struct{ name, query string }{
		{"negative cursor", "?cursor=-1"},
		{"zero limit", "?limit=0"},
		{"negative limit", "?limit=-5"},
		{"non-integer cursor", "?cursor=abc"},
		{"plus-signed cursor", "?cursor=%2B5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e errorResponse
			getJSON(t, ts, "/v1/sessions/"+created.ID+"/emitted"+tc.query, http.StatusBadRequest, &e)
			if e.Error == "" {
				t.Error("400 without an error body")
			}
		})
	}

	// A session that has never published a snapshot pages as an empty
	// stream: total 0, next_cursor 0, even when the consumer over-pages.
	t.Run("no snapshot yet", func(t *testing.T) {
		var fresh CreateResponse
		postJSON(t, ts, "/v1/sessions", hdr, http.StatusCreated, &fresh)
		var p EmittedResponse
		getJSON(t, ts, "/v1/sessions/"+fresh.ID+"/emitted?cursor=50", http.StatusOK, &p)
		if len(p.Entries) != 0 || p.NextCursor != 0 || p.Total != 0 || p.Final {
			t.Errorf("empty-stream page = %+v, want no entries, next_cursor 0, total 0, non-final", p)
		}
	})
}

// TestQueryIntStrict pins the accepted grammar of integer query
// parameters — an optional '-' then decimal digits, nothing else — and
// the stable "not an integer" message for everything outside it.
// strconv.ParseInt alone would also admit a leading '+'.
func TestQueryIntStrict(t *testing.T) {
	cases := []struct {
		raw    string
		want   int64
		reject bool
	}{
		{raw: "", want: 42},
		{raw: "0", want: 0},
		{raw: "7", want: 7},
		{raw: "-3", want: -3},
		{raw: "05", want: 5},
		{raw: "+5", reject: true},
		{raw: " 5", reject: true},
		{raw: "5 ", reject: true},
		{raw: "abc", reject: true},
		{raw: "-", reject: true},
		{raw: "1e3", reject: true},
		{raw: "0x10", reject: true},
		{raw: "9223372036854775808", reject: true}, // overflow
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", "/?v="+url.QueryEscape(tc.raw), nil)
		got, err := queryInt(req, "v", 42)
		if tc.reject {
			if err == nil {
				t.Errorf("queryInt(%q) accepted as %d, want rejection", tc.raw, got)
				continue
			}
			if want := fmt.Sprintf("v %q: not an integer", tc.raw); err.Error() != want {
				t.Errorf("queryInt(%q) error %q, want the stable message %q", tc.raw, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("queryInt(%q): %v", tc.raw, err)
		} else if got != tc.want {
			t.Errorf("queryInt(%q) = %d, want %d", tc.raw, got, tc.want)
		}
	}
}

// FuzzQueryInt cross-checks queryInt against an independent statement of
// its grammar: a value is accepted iff it is an optional '-' followed by
// at least one digit and fits in int64, and every rejection carries the
// one stable message the HTTP layer documents.
func FuzzQueryInt(f *testing.F) {
	for _, s := range []string{"", "0", "-1", "+5", "05", " 5", "abc", "-",
		"9223372036854775807", "9223372036854775808", "1e3", "00", "٣"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest("GET", "/?v="+url.QueryEscape(raw), nil)
		got, err := queryInt(req, "v", 42)
		if raw == "" {
			if err != nil || got != 42 {
				t.Fatalf("empty param: (%d, %v), want the default", got, err)
			}
			return
		}
		body := strings.TrimPrefix(raw, "-")
		valid := len(body) > 0
		for i := 0; i < len(body); i++ {
			if body[i] < '0' || body[i] > '9' {
				valid = false
			}
		}
		ref, rerr := strconv.ParseInt(raw, 10, 64)
		if valid && rerr == nil {
			if err != nil {
				t.Fatalf("rejected valid %q: %v", raw, err)
			}
			if got != ref {
				t.Fatalf("queryInt(%q) = %d, want %d", raw, got, ref)
			}
			return
		}
		if err == nil {
			t.Fatalf("accepted %q as %d", raw, got)
		}
		if want := fmt.Sprintf("v %q: not an integer", raw); err.Error() != want {
			t.Fatalf("error %q, want %q", err, want)
		}
	})
}

// metricsScrapeServer stands up a server with one mid-stream session (so
// the per-session gauge families have sample rows) and returns a scrape.
func metricsScrapeServer(t *testing.T) (*Server, *httptest.Server, []byte) {
	t.Helper()
	tr, _, opts := aisleTrace(t, 11)
	opts.PublishEvery = 1000
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Enqueue(tr.Reads[:3000]); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, sess)
	if _, err := sess.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q, want the version 0.0.4 text format", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return srv, ts, body
}

// canonicalMetrics reduces an exposition body to its structure — family
// names, types, help text, and per-sample label-name sets, in emission
// order with duplicates collapsed — so the golden file pins the catalog
// without pinning values, session IDs or bucket counts.
func canonicalMetrics(t *testing.T, body []byte) string {
	t.Helper()
	var out []string
	seen := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		var canon string
		switch {
		case strings.HasPrefix(line, "# HELP "):
			canon = strings.TrimPrefix(line, "# ")
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			canon = "TYPE " + f[2] + " " + f[3]
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
			continue
		default:
			name, labels := line, ""
			if i := strings.IndexByte(line, '{'); i >= 0 {
				j := strings.LastIndexByte(line, '}')
				if j < i {
					t.Fatalf("unbalanced braces in sample %q", line)
				}
				name = line[:i]
				var keys []string
				for _, kv := range strings.Split(line[i+1:j], ",") {
					eq := strings.IndexByte(kv, '=')
					if eq < 0 {
						t.Fatalf("label without '=' in sample %q", line)
					}
					keys = append(keys, kv[:eq])
				}
				sort.Strings(keys)
				labels = "{" + strings.Join(keys, ",") + "}"
			} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
				name = line[:sp]
			}
			canon = "SAMPLE " + name + labels
		}
		if !seen[canon] {
			seen[canon] = true
			out = append(out, canon)
		}
	}
	return strings.Join(out, "\n") + "\n"
}

// TestMetricsGolden pins the /metrics catalog — every family name, type,
// help text and label set — against testdata/metrics.golden. A rename, a type
// change or a dropped label breaks dashboards and alert rules downstream,
// so it must show up as a reviewed golden diff, not a silent drift.
// Regenerate with: go test ./internal/serve -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	_, _, body := metricsScrapeServer(t)
	checkGolden(t, "metrics.golden", canonicalMetrics(t, body))
}

// checkGolden compares got against testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; if deliberate, rerun with -update\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// jsonKeys lists the top-level keys of a JSON object in wire order.
func jsonKeys(t *testing.T, body []byte) []string {
	t.Helper()
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, body)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestStatsGolden pins the JSON key lists, in wire order, of GET
// /v1/stats and GET /v1/sessions/{id} against testdata/stats.golden:
// loadgen, the benchmark harness and operators' scripts decode both, so
// a renamed, dropped or added key must show up as a reviewed golden diff.
// Regenerate with: go test ./internal/serve -run TestStatsGolden -update
//
// A failed session's stats add the key that is absent while a session is
// healthy; the failure here is a batch naming a reader the deployment
// does not have.
func TestStatsGolden(t *testing.T) {
	srv, ts, _ := metricsScrapeServer(t)
	srv.mu.Lock()
	id := srv.order[0] // the scrape server's one session
	srv.mu.Unlock()
	failed, err := srv.CreateSession(trace.Header{Scenario: "failed"})
	if err != nil {
		t.Fatal(err)
	}
	if err := failed.Enqueue([]reader.TagRead{{Reader: 99}}); err != nil {
		t.Fatal(err)
	}
	if _, err := failed.Finish(); err == nil {
		t.Fatal("Finish succeeded after an unconsumable batch")
	}
	var out strings.Builder
	for _, get := range []struct{ path, shown string }{
		{"/v1/stats", "/v1/stats"},
		{"/v1/sessions/" + id, "/v1/sessions/{id}"},
		{"/v1/sessions/" + failed.ID, "/v1/sessions/{id} (failed)"},
	} {
		resp, err := http.Get(ts.URL + get.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", get.path, resp.StatusCode, err)
		}
		fmt.Fprintf(&out, "GET %s\n", get.shown)
		for _, k := range jsonKeys(t, body) {
			fmt.Fprintf(&out, "  %s\n", k)
		}
	}
	checkGolden(t, "stats.golden", out.String())
}

// TestSessionGaugesLiveOnly: the per-session gauge families cover live
// sessions only — the set stppd_sessions_active counts — so a finished
// session's label leaves the scrape instead of lingering as two zero
// series until eviction.
func TestSessionGaugesLiveOnly(t *testing.T) {
	srv, _, body := metricsScrapeServer(t)
	srv.mu.Lock()
	sess := srv.sessions[srv.order[0]]
	srv.mu.Unlock()
	label := `{session="` + sess.ID + `"}`
	if n := strings.Count(string(body), label); n != 2 {
		t.Fatalf("live session %s: %d labeled series, want 2 (queue depth and stall seconds)", sess.ID, n)
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	body, err := srv.PromMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), label) {
		t.Errorf("finished session %s still has per-session series", sess.ID)
	}
}

// TestMetricsLint runs the promtool-style lint over a live scrape: the
// body a real Prometheus server would pull must parse under the text
// format's own rules (HELP/TYPE discipline, histogram invariants, label
// syntax), not just look plausible.
func TestMetricsLint(t *testing.T) {
	_, _, body := metricsScrapeServer(t)
	if err := prom.LintProm(body); err != nil {
		t.Fatalf("GET /metrics body fails lint: %v", err)
	}
	if !strings.Contains(string(body), "stppd_snapshot_latency_seconds_bucket{le=\"+Inf\"}") {
		t.Error("snapshot latency histogram is missing its +Inf bucket")
	}
}

// TestStatsScrapeRace hammers every read-only surface — /metrics,
// /v1/stats and the per-session counters — while a producer is actively
// ingesting, to prove the coherent-sampling paths are race-free (run
// under -race) and that no scrape ever observes effect-before-cause
// inversions like consumed > ingested or finished > created.
func TestStatsScrapeRace(t *testing.T) {
	tr, _, opts := aisleTrace(t, 13)
	opts.PublishEvery = 500
	srv := newTestServer(t, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i+200 <= len(tr.Reads) && i < 4000; i += 200 {
			if err := sess.Enqueue(tr.Reads[i : i+200]); err != nil {
				t.Errorf("enqueue: %v", err)
				return
			}
		}
	}()
	// Scrapers use t.Error (legal off the test goroutine) and a local GET
	// helper rather than getJSON, which may Fatal.
	get := func(path string, out any) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	scrape := func(check func()) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			check()
		}
	}
	wg.Add(3)
	go scrape(func() {
		body, err := srv.PromMetrics()
		if err != nil {
			t.Errorf("PromMetrics: %v", err)
			return
		}
		if lerr := prom.LintProm(body); lerr != nil {
			t.Errorf("mid-ingest scrape fails lint: %v", lerr)
		}
	})
	go scrape(func() {
		var st Stats
		if err := get("/v1/stats", &st); err != nil {
			t.Error(err)
			return
		}
		if st.ReadsConsumed > st.ReadsIngested {
			t.Errorf("consumed %d > ingested %d: sampling order violated", st.ReadsConsumed, st.ReadsIngested)
		}
		if st.SessionsFinished > st.SessionsCreated {
			t.Errorf("finished %d > created %d: sampling order violated", st.SessionsFinished, st.SessionsCreated)
		}
	})
	go scrape(func() {
		var ss SessionStats
		if err := get("/v1/sessions/"+sess.ID, &ss); err != nil {
			t.Error(err)
			return
		}
		if ss.Consumed > ss.Enqueued {
			t.Errorf("session consumed %d > enqueued %d", ss.Consumed, ss.Enqueued)
		}
		if ss.Finalized < 0 || ss.Discarded < 0 || ss.LateReads < 0 {
			t.Errorf("negative lifecycle counters: %+v", ss)
		}
	})
	wg.Wait()
	waitDrained(t, sess)
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

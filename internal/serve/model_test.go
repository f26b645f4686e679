package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The daemon model test drives a real Server through httptest with random
// operations over a few small aisle sessions: create, POST the next reads
// (or a body with a bad line), GET /order with and without refresh,
// finish, drop, cross the checkpoint cadence, and crash (copy the data
// directory, abandon the Server, boot a new one over the copy). The model
// keeps per session the reads it accepted (the first reads of its trace),
// its state, and the drain's cadence counters. After every step, a served
// order must be the offline replay's answer over the reads it covers, and
// status codes, GET /v1/sessions/{id}, the session directories on disk and
// the /v1/stats counters must match the model.
//
// An evicted session is dropped too (404, log deleted). Finishing a session
// that holds no reads fails it; a failed state joins the model with the
// panic fence (ROADMAP item 4(b)), and until then finish skips such a
// session.

type modelState int

const (
	modelLive modelState = iota
	modelFinished
	modelDropped
)

type modelSession struct {
	id    string
	tr    int // index into the trace pool
	state modelState
	reads int // accepted reads
	// published is how many reads the latest published snapshot covers,
	// -1 for none; sincePub and sinceCkpt are the drain's cadence counters
	// and ckptReads is what the log's last checkpoint covers.
	published, sincePub, sinceCkpt, ckptReads int
	// For modelEvents; bootReads is the read count when a boot last
	// recovered the session live, -1 if none did.
	cadencePub, refreshed, evicted bool
	bootReads                      int
}

// modelEvents are situations the fixed seeds must reach between them, so
// that a change to the seeds or to the operation encoding cannot quietly
// stop exercising one. "boot-past-checkpoint/1" is a boot past a
// checkpoint of the trace with out-of-order reads.
var modelEvents = []string{"finish-after-refresh", "cadence-snapshot-served",
	"post-after-finish", "finish-resumed-after-boot", "boot-live-and-finished",
	"boot-after-drop", "boot-after-evict", "boot-past-checkpoint/0",
	"boot-past-checkpoint/1", "refresh-after-boot", "first-batch-after-boot-publishes"}

// modelPool holds the sessions' traces and memoizes their offline replays.
type modelPool struct {
	cfg    stpp.Config
	traces []*trace.Trace

	mu     sync.Mutex
	orders map[[2]int]OrderResponse
}

// newModelPool builds two eight-tag aisle traces, the second with 5% of
// its reads delayed past a few successors.
func newModelPool(tb testing.TB) *modelPool {
	a, _, opts := aisleTrace(tb, 3)
	b, _, _ := aisleTrace(tb, 7)
	b.Reads = perturbReads(rand.New(rand.NewSource(7)), b.Reads, 0.05)
	return &modelPool{cfg: opts.Config, traces: []*trace.Trace{a, b}, orders: map[[2]int]OrderResponse{}}
}

// perturbReads delays a fraction of reads past a few successors, the
// out-of-order delivery the pipeline's property tests model.
func perturbReads(rng *rand.Rand, reads []reader.TagRead, frac float64) []reader.TagRead {
	out := append([]reader.TagRead(nil), reads...)
	for i := 0; i+1 < len(out); i++ {
		if rng.Float64() < frac {
			j := min(i+1+rng.Intn(4), len(out)-1)
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// order is the offline replay's answer over the first n reads of trace i,
// with no session ID.
func (p *modelPool) order(tb testing.TB, i, n int) OrderResponse {
	p.mu.Lock()
	defer p.mu.Unlock()
	if o, ok := p.orders[[2]int{i, n}]; ok {
		return o
	}
	tr := p.traces[i]
	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, p.cfg, false, false), deploy.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer se.Close()
	res, err := se.Localize(tr.Reads[:n])
	if err != nil {
		tb.Fatalf("offline replay of %d reads: %v", n, err)
	}
	o := orderResponse("", &Snapshot{Result: res})
	p.orders[[2]int{i, n}] = o
	return o
}

// daemonModel is one run: the Server under test and the model of it.
type daemonModel struct {
	t     *testing.T
	pool  *modelPool
	ops   []byte
	trail []string
	seen  map[string]bool

	opts   Options
	srv    *Server
	ts     *httptest.Server
	sess   []*modelSession // creation order
	nextID int
	// want holds the current process's counters; SessionsActive is
	// counted at check time.
	want Stats
}

// opTable weighs the operations: one byte picks an entry.
var opTable = []string{"create", "post", "post", "post", "bad-post", "cross-checkpoint",
	"order", "refresh", "finish", "drop", "crash"}

// runDaemonModel runs the operations the bytes encode: the first five bytes
// pick the options, then each step takes an operation byte and the bytes
// the operation needs, until the bytes run out. Reached events go into
// seen.
func runDaemonModel(t *testing.T, pool *modelPool, ops []byte, seen map[string]bool) {
	m := &daemonModel{t: t, pool: pool, ops: ops, seen: seen}
	m.opts = Options{
		Config:          pool.cfg,
		DataDir:         t.TempDir(),
		Fsync:           wal.SyncNever,
		SegmentBytes:    16 << 10,
		QueueBatches:    []int{1, 2, 8, 32}[m.pick(4)],
		MaxBatch:        []int{16, 64}[m.pick(2)],
		PublishEvery:    []int{0, 150, 500}[m.pick(3)],
		CheckpointEvery: []int{100, 300, 1000}[m.pick(3)],
		RetainFinished:  1 + m.pick(2),
	}
	m.boot(newTestServer(t, m.opts))
	defer func() { m.ts.Close() }()
	for len(m.ops) > 0 {
		m.step()
		m.check()
	}
}

// pick consumes one byte as a choice in [0, n); 0 once the bytes run out.
func (m *daemonModel) pick(n int) int {
	if len(m.ops) == 0 {
		return 0
	}
	v := int(m.ops[0]) % n
	m.ops = m.ops[1:]
	return v
}

func (m *daemonModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s\nqueue %d, batch %d, publish %d, checkpoint %d, retain %d; steps:\n  %s",
		fmt.Sprintf(format, args...), m.opts.QueueBatches, m.opts.MaxBatch, m.opts.PublishEvery,
		m.opts.CheckpointEvery, m.opts.RetainFinished, strings.Join(m.trail, "\n  "))
}

func (m *daemonModel) step() {
	op := opTable[m.pick(len(opTable))]
	if len(m.sess) == 0 {
		op = "create"
	} else if op == "create" && len(m.sess) == 4 {
		op = "post"
	}
	switch op {
	case "create":
		m.create()
		return
	case "crash":
		m.trail = append(m.trail, op)
		m.crash()
		return
	}
	s := m.sess[m.pick(len(m.sess))]
	if op == "finish" && s.state == modelLive && s.reads == 0 {
		op = "post"
	}
	left := len(m.pool.traces[s.tr].Reads) - s.reads
	switch op {
	case "post", "bad-post":
		mb := m.opts.MaxBatch
		n := min([]int{1, 9, mb - 1, mb, 2*mb + 5, 20 * mb}[m.pick(6)], left)
		bad := -1
		if op == "bad-post" {
			bad = m.pick(n + 1)
		}
		m.post(s, n, bad)
	case "cross-checkpoint":
		m.post(s, min(m.opts.CheckpointEvery-s.sinceCkpt, left), -1)
	default:
		m.trail = append(m.trail, op+" "+s.id)
		m.query(op, s)
	}
}

func (m *daemonModel) create() {
	tr := m.pick(len(m.pool.traces))
	m.nextID++
	id := fmt.Sprintf("s%06d", m.nextID)
	m.trail = append(m.trail, fmt.Sprintf("create %s over trace %d", id, tr))
	hdr, err := json.Marshal(m.pool.traces[tr].Header)
	if err != nil {
		m.t.Fatal(err)
	}
	var cr CreateResponse
	if m.decode(m.call(http.MethodPost, "/v1/sessions", hdr, http.StatusCreated), &cr); cr.ID != id {
		m.fatalf("created %q, want %s", cr.ID, id)
	}
	// A boot reserves only the IDs of the logs it finds, so a session
	// created after it can take over the ID of one dropped before it.
	m.sess = slices.DeleteFunc(m.sess, func(s *modelSession) bool { return s.id == id })
	m.sess = append(m.sess, &modelSession{id: id, tr: tr, published: -1, bootReads: -1})
	m.want.SessionsCreated++
	// Creation evicts the oldest finished sessions beyond RetainFinished.
	finished := 0
	for _, s := range m.sess {
		if s.state == modelFinished {
			finished++
		}
	}
	for _, s := range m.sess {
		if finished > m.opts.RetainFinished && s.state == modelFinished {
			s.state, s.evicted = modelDropped, true
			finished--
		}
	}
}

// badLines are the lines a bad POST inserts: not JSON, a bad EPC, and a
// read from an unknown reader.
var badLines = []string{"not json at all", `{"epc":"xyz","t":0}`,
	`{"epc":"306400000000000000000001","t":0,"phase":0,"rssi":-60,"ch":6,"rdr":99}`}

// post sends the session's next n reads, with a bad line before read bad
// when bad >= 0. The lines before a bad one are accepted, the rest are
// not.
func (m *daemonModel) post(s *modelSession, n, bad int) {
	reads := m.pool.traces[s.tr].Reads[s.reads : s.reads+n]
	body, accepted := ndjson(m.t, reads), n
	if bad >= 0 {
		kind := m.pick(len(badLines))
		m.trail = append(m.trail, fmt.Sprintf("POST %s %d reads, bad line %d at %d", s.id, n, kind, bad))
		body = append(append(ndjson(m.t, reads[:bad]), badLines[kind]+"\n"...), ndjson(m.t, reads[bad:])...)
		accepted = bad
	} else {
		m.trail = append(m.trail, fmt.Sprintf("POST %s %d reads", s.id, n))
	}
	want := http.StatusOK
	switch {
	case s.state == modelDropped:
		want = http.StatusNotFound
	case s.state == modelFinished && accepted > 0:
		want = http.StatusConflict
		m.seen["post-after-finish"] = true
	case bad >= 0:
		want = http.StatusBadRequest
	}
	resp := m.call(http.MethodPost, "/v1/sessions/"+s.id+"/reads", body, want)
	if s.state != modelLive {
		return
	}
	var ir IngestResponse
	if m.decode(resp, &ir); bad < 0 && ir.Accepted != n {
		m.fatalf("POST reads: %s, want %d accepted", resp, n)
	}
	// The handler enqueues MaxBatch-read batches; the drain consumes each
	// and then runs the publish and checkpoint cadences.
	for ; accepted > 0; accepted -= m.opts.MaxBatch {
		b := min(accepted, m.opts.MaxBatch)
		s.reads += b
		m.want.ReadsIngested += int64(b)
		m.want.ReadsConsumed += int64(b)
		if s.sincePub += b; m.opts.PublishEvery > 0 && s.sincePub >= m.opts.PublishEvery {
			if s.bootReads == s.reads-b {
				m.seen["first-batch-after-boot-publishes"] = true
			}
			s.sincePub, s.published, s.cadencePub = 0, s.reads, true
			m.want.Snapshots++
		}
		if s.sinceCkpt += b; s.sinceCkpt >= m.opts.CheckpointEvery {
			s.sinceCkpt, s.ckptReads = 0, s.reads
			m.want.CheckpointsWritten++
		}
	}
}

// query runs GET /order ("order"), GET /order?refresh=1 ("refresh"), POST
// /finish ("finish") or DELETE ("drop") on a session.
func (m *daemonModel) query(op string, s *modelSession) {
	method, path := http.MethodGet, "/v1/sessions/"+s.id
	switch op {
	case "order":
		path += "/order"
	case "refresh":
		path += "/order?refresh=1"
	case "finish":
		method, path = http.MethodPost, path+"/finish"
	case "drop":
		method = http.MethodDelete
	}
	n := s.reads
	switch {
	case s.state == modelDropped:
		m.call(method, path, nil, http.StatusNotFound)
		return
	case op == "drop":
		if s.state == modelLive {
			m.want.SessionsFinished++
		}
		s.state, s.evicted = modelDropped, false
		m.call(method, path, nil, http.StatusNoContent)
		return
	case s.state == modelFinished:
		// Every query answers the final snapshot.
	case op == "order" && s.published < 0, s.reads == 0:
		m.call(method, path, nil, http.StatusAccepted)
		return
	case op == "order":
		if n = s.published; s.cadencePub {
			m.seen["cadence-snapshot-served"] = true
		}
	case op == "refresh":
		if s.bootReads >= 0 && s.published < 0 {
			m.seen["refresh-after-boot"] = true
		}
		s.published, s.cadencePub, s.refreshed = s.reads, false, true
		m.want.Snapshots++
	default: // finish
		if s.refreshed {
			m.seen["finish-after-refresh"] = true
		}
		if s.bootReads >= 0 && s.reads > s.bootReads {
			m.seen["finish-resumed-after-boot"] = true
		}
		s.state, s.published, s.cadencePub = modelFinished, s.reads, false
		m.want.Snapshots++
		m.want.SessionsFinished++
	}
	want := m.pool.order(m.t, s.tr, n)
	want.SessionID, want.Final, want.Reads = s.id, s.state == modelFinished, int64(n)
	exp, err := json.Marshal(want)
	if err != nil {
		m.t.Fatal(err)
	}
	got := snapshotMs.ReplaceAllString(string(m.call(method, path, nil, http.StatusOK)), `"snapshot_ms":0`)
	if got != string(exp)+"\n" {
		m.fatalf("%s %s:\n  got  %s\n  want %s", op, s.id, got, exp)
	}
}

// crash abandons the Server and boots a new one over a copy of its data
// directory, then queries every session's published order. Steps end
// drained, so no checkpoint is mid-append while the copy runs.
func (m *daemonModel) crash() {
	m.ts.Close()
	m.boot(bootCopy(m.t, m.opts))
	for _, s := range m.sess {
		m.query("order", s)
	}
}

// boot serves a Server just booted over the data directory. It recovered
// every live and finished session, finished ones at their final snapshot.
// A live one came up with no snapshot, and the reads replayed past its
// last checkpoint count toward its next publish.
func (m *daemonModel) boot(srv *Server) {
	m.srv, m.ts, m.opts.DataDir = srv, httptest.NewServer(srv.Handler()), srv.opts.DataDir
	m.want, m.nextID = Stats{WALEnabled: true}, 0
	states := map[modelState]bool{}
	for _, s := range m.sess {
		if s.state == modelDropped {
			ev := "boot-after-drop"
			if s.evicted {
				ev = "boot-after-evict"
			}
			m.seen[ev] = true
			continue
		}
		states[s.state] = true
		num, _ := strconv.Atoi(s.id[1:])
		m.nextID = max(m.nextID, num)
		if 0 < s.ckptReads && s.ckptReads < s.reads {
			m.seen[fmt.Sprintf("boot-past-checkpoint/%d", s.tr)] = true
		}
		n := int64(s.reads)
		m.want.SessionsCreated++
		m.want.SessionsRecovered++
		m.want.ReadsRecovered += n
		m.want.ReadsIngested += n
		m.want.ReadsConsumed += n
		m.want.SuffixReadsReplayed += int64(s.reads - s.ckptReads)
		if s.state == modelFinished {
			m.want.SessionsFinished++
			m.want.Snapshots++
			continue
		}
		s.published, s.cadencePub, s.refreshed = -1, false, false
		s.sincePub, s.sinceCkpt, s.bootReads = s.reads-s.ckptReads, 0, s.reads
	}
	if states[modelLive] && states[modelFinished] {
		m.seen["boot-live-and-finished"] = true
	}
}

// check runs after every step, once every session has drained.
func (m *daemonModel) check() {
	m.drain()
	want, dirs := m.want, []string{}
	for _, s := range m.sess {
		path := "/v1/sessions/" + s.id
		if s.state == modelDropped {
			m.call(http.MethodGet, path, nil, http.StatusNotFound)
			continue
		}
		dirs = append(dirs, s.id)
		if s.state == modelLive {
			want.SessionsActive++
		}
		var got SessionStats
		m.decode(m.call(http.MethodGet, path, nil, http.StatusOK), &got)
		got.Stalls, got.StallSeconds, got.ActiveTags = 0, 0, 0
		n := int64(s.reads)
		exp := SessionStats{SessionID: s.id, Enqueued: n, Consumed: n,
			Finished: s.state == modelFinished, Snapshots: s.published >= 0}
		if got != exp {
			m.fatalf("GET %s:\n  got  %+v\n  want %+v", path, got, exp)
		}
	}
	// Zero what the model does not determine: times, rates, WAL volume
	// and the resident-tag gauge. The lifecycle counters stay (0: it is
	// off).
	var got Stats
	m.decode(m.call(http.MethodGet, "/v1/stats", nil, http.StatusOK), &got)
	got.UptimeSeconds, got.ReadsPerSecond, got.StallSeconds, got.AvgSnapshotMs, got.RecoverySeconds = 0, 0, 0, 0, 0
	got.Stalls, got.WALAppends, got.SegmentsTruncated, got.RecoveryWALBytes, got.RecoverySupersededBytes, got.ActiveTags = 0, 0, 0, 0, 0, 0
	if got != want {
		m.fatalf("GET /v1/stats:\n  got  %+v\n  want %+v", got, want)
	}
	// Dropped and evicted sessions delete their logs; the rest keep them.
	ents, err := os.ReadDir(m.opts.DataDir)
	if err != nil {
		m.t.Fatal(err)
	}
	onDisk := []string{}
	for _, e := range ents {
		onDisk = append(onDisk, e.Name())
	}
	if slices.Sort(dirs); !slices.Equal(onDisk, dirs) {
		m.fatalf("session directories %v, want %v", onDisk, dirs)
	}
}

// drain waits until no session has a queued batch or a drain task running.
func (m *daemonModel) drain() {
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		busy := false
		m.srv.mu.Lock()
		for _, s := range m.srv.sessions {
			busy = busy || s.Queued() > 0 || s.state.Load() == stateActive
		}
		m.srv.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			m.fatalf("sessions never drained")
		}
	}
}

// call sends one request, fails the run unless it answers want, and
// returns the body.
func (m *daemonModel) call(method, path string, body []byte, want int) []byte {
	m.t.Helper()
	req, err := http.NewRequest(method, m.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		m.t.Fatal(err)
	}
	resp, err := m.ts.Client().Do(req)
	if err != nil {
		m.fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != want {
		m.fatalf("%s %s: %d %.300s (%v), want %d", method, path, resp.StatusCode, data, err, want)
	}
	return data
}

func (m *daemonModel) decode(data []byte, out any) {
	if err := json.Unmarshal(data, out); err != nil {
		m.fatalf("decode %.300s: %v", data, err)
	}
}

// modelSeeds are the fixed seeds TestDaemonModel runs; -short runs the
// first four.
var modelSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// modelOps is a fixed seed's operation bytes.
func modelOps(seed int64) []byte {
	ops := make([]byte, 256)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestDaemonModel runs the model over the fixed seeds, which between them
// must reach every event in modelEvents.
func TestDaemonModel(t *testing.T) {
	pool := newModelPool(t)
	seeds := modelSeeds
	if testing.Short() {
		seeds = seeds[:4]
	}
	reached := map[string]bool{}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			seen := map[string]bool{}
			runDaemonModel(t, pool, modelOps(seed), seen)
			maps.Copy(reached, seen)
			t.Logf("events: %v", slices.Sorted(maps.Keys(seen)))
		})
	}
	for _, ev := range modelEvents {
		if !reached[ev] && !testing.Short() {
			t.Errorf("no fixed seed reaches %q", ev)
		}
	}
}

// FuzzDaemonModel runs the model over arbitrary operation bytes, cut at
// 256 so one run stays a few dozen steps.
func FuzzDaemonModel(f *testing.F) {
	for _, seed := range modelSeeds {
		f.Add(modelOps(seed))
	}
	pool := newModelPool(f)
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDaemonModel(t, pool, ops[:min(len(ops), 256)], map[string]bool{})
	})
}

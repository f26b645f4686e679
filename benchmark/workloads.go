package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/wal"
)

// sizes are the input and run dimensions of the workloads. The benchmark
// runs fullSizes; the smoke test swaps in tinySizes.
type sizes struct {
	aisleTags, beltTags, portalBags int
	portalSessions                  int // live sessions in portals-query
	restartAisle, restartPortals    int // recovered sessions in restart-recover
	boots                           int // cold boots timed for setup_s
	// Ladder prefixes: sessions for the firehose (about 5 s of its
	// traffic), POSTs for the belt and the portals (10 s at their rates).
	ladderSessions, ladderBeltPosts, ladderPortalPosts int
}

var fullSizes = sizes{
	aisleTags: 64, beltTags: 128, portalBags: 48,
	portalSessions: 8, restartAisle: 16, restartPortals: 4, boots: 21,
	ladderSessions: 32, ladderBeltPosts: 3125, ladderPortalPosts: 2344,
}

var tinySizes = sizes{
	aisleTags: 8, beltTags: 8, portalBags: 6,
	portalSessions: 4, restartAisle: 4, restartPortals: 1, boots: 2,
	ladderSessions: 2, ladderBeltPosts: 40, ladderPortalPosts: 40,
}

// env is one benchmark invocation's shared settings.
type env struct {
	stppd   string // daemon binary built from the checkout
	work    string // scratch directory for data directories
	seed    int64
	seconds float64
	size    sizes
	dirs    int

	// Generated traces, kept for the whole invocation: the daemon run and
	// both ladder passes replay the same inputs. Aisle and portal sessions
	// cycle through several variants of the seed's trace, so a run's
	// numbers average over layouts instead of resting on one.
	aisleIn, portalsIn []*traceInput
	beltIn             *traceInput
}

// Trace variants per seed: an aisle trace takes about 0.05 s to generate,
// a portal trace about a second. Costs differ from layout to layout, so a
// run cycles through enough of them that the seed barely moves the mean,
// and a median over sessions does not sit between two layouts' costs.
const aisleVariants, portalVariants = 32, 4

func (e *env) aisle() ([]*traceInput, error) {
	return variants(&e.aisleIn, aisleVariants, e.seed, func(seed int64) (*traceInput, error) {
		return aisleInput(seed, e.size.aisleTags)
	})
}

func (e *env) portals() ([]*traceInput, error) {
	return variants(&e.portalsIn, portalVariants, e.seed, func(seed int64) (*traceInput, error) {
		return portalsInput(seed, e.size.portalBags)
	})
}

// variants generates n traces of distinct seeds derived from seed, once.
func variants(slot *[]*traceInput, n int, seed int64, gen func(int64) (*traceInput, error)) ([]*traceInput, error) {
	for k := len(*slot); k < n; k++ {
		in, err := gen(seed*int64(n) + int64(k))
		if err != nil {
			return nil, err
		}
		*slot = append(*slot, in)
	}
	return *slot, nil
}

// belt is long enough for the open loop's whole run and the ladder's
// prefix.
func (e *env) belt(w *workload) (*traceInput, error) {
	if e.beltIn == nil {
		minReads := max(int(w.rate*e.seconds*1.1)+w.batch, e.size.ladderBeltPosts*w.batch)
		in, err := beltInput(e.seed, e.size.beltTags, minReads)
		if err != nil {
			return nil, err
		}
		e.beltIn = in
	}
	return e.beltIn, nil
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

// freshDir names a new, not yet existing data directory.
func (e *env) freshDir() string {
	e.dirs++
	return filepath.Join(e.work, fmt.Sprintf("data-%03d", e.dirs))
}

// workload is one traffic mix against stppd. run drives the real daemon
// over HTTP and fills the record; ladder replays the same request bodies
// in process for the per-layer breakdown.
type workload struct {
	name   string
	daemon daemonConfig
	// rate is the open-loop rate in reads/s (0 = closed loop), frozen
	// after calibration (see README.md), and batch the reads per POST.
	rate   float64
	batch  int
	run    func(e *env, w *workload, r *record) error
	ladder func(e *env, w *workload, l *ladder) error
}

// beltPolicy is the finalize policy the conveyor belt runs under: quiet
// gaps on the belt stay well under 2 s and timestamp jitter under 1 s.
var beltPolicy = stpp.FinalizePolicy{After: 2, Margin: 1}

var workloads = []*workload{
	{
		name:   "aisle-firehose",
		daemon: daemonConfig{fsync: wal.SyncAlways, checkpointEvery: 8192},
		batch:  256,
		run:    runFirehose, ladder: ladderFirehose,
	},
	{
		name:   "belt-steady",
		daemon: daemonConfig{fsync: wal.SyncAlways, checkpointEvery: 50000, finalize: beltPolicy},
		rate:   30000, batch: 128,
		run: runBelt, ladder: ladderBelt,
	},
	{
		name:   "portals-query",
		daemon: daemonConfig{fsync: wal.SyncNever, checkpointEvery: 100000},
		rate:   60000, batch: 256,
		run: runPortals, ladder: ladderPortals,
	},
	{
		name:   "restart-recover",
		daemon: daemonConfig{fsync: wal.SyncNever, checkpointEvery: 8192},
		batch:  256,
		run:    runRestart, ladder: ladderRestart,
	},
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// interval is the open-loop spacing of POSTs of w.batch reads.
func (w *workload) interval() time.Duration {
	return time.Duration(float64(w.batch) / w.rate * float64(time.Second))
}

// boot times e.size.boots cold starts of the workload's daemon on empty
// data directories and leaves the last one running for the workload.
func (e *env) boot(w *workload, r *record) (*daemon, error) {
	for i := 1; ; i++ {
		d, err := startDaemon(e.stppd, e.freshDir(), w.daemon)
		if r.op(err) != nil {
			return nil, err
		}
		r.add(&r.setup, d.setup.Seconds())
		if i >= e.size.boots {
			return d, nil
		}
		d.stop()
	}
}

// measure runs the workload's measured stretch on a booted daemon,
// charging the daemon's counter and CPU deltas and its peak RSS to r.
func measure(d *daemon, r *record, f func() error) error {
	before, err := d.sample()
	if r.op(err) != nil {
		return err
	}
	return measureFrom(d, r, before, f)
}

// measureFrom is measure with the counters and CPU charged from before.
// A freshly exec'd daemon's counters and CPU time start at zero, so
// usage{} charges everything since exec, boot-time recovery included.
func measureFrom(d *daemon, r *record, before usage, f func() error) error {
	if err := f(); err != nil {
		return err
	}
	after, err := d.sample()
	if r.op(err) != nil {
		return err
	}
	r.daemon.add(before, after)
	rss, err := d.peakRSSMB()
	if r.op(err) != nil {
		return err
	}
	r.add(&r.rss, rss)
	return nil
}

// answer is one session's final order and the reads it was sent.
type answer struct {
	final *serve.OrderResponse
	in    *traceInput
	n     int // leading reads of in sent
}

// verifyAll checks each daemon final against the offline replay of the
// reads its session was sent.
func verifyAll(v *verifier, r *record, answers []answer) {
	for _, a := range answers {
		if tau, err := v.check(a.final, a.in, a.n); r.op(err) == nil {
			r.add(&r.taus, tau)
		}
	}
}

// readerBodies splits an aisle trace into each reader's POST bodies.
func readerBodies(in *traceInput, batch int) ([connections][]body, error) {
	var streams [connections][]body
	perReader := byReader(in.reads)
	if len(perReader) != connections {
		return streams, fmt.Errorf("aisle has %d readers, want %d", len(perReader), connections)
	}
	for k, reads := range perReader {
		b, err := chunk(reads, batch)
		if err != nil {
			return streams, err
		}
		streams[k] = b
	}
	return streams, nil
}

// runFirehose replays the aisle back to back as fresh sessions, each of
// the two connections acting as one of the aisle's readers and POSTing
// only that reader's reads, as fast as the daemon acknowledges them.
func runFirehose(e *env, w *workload, r *record) error {
	ins, err := e.aisle()
	if err != nil {
		return err
	}
	streams := make([][connections][]body, len(ins))
	for v, in := range ins {
		if streams[v], err = readerBodies(in, w.batch); err != nil {
			return err
		}
	}
	d, err := e.boot(w, r)
	if err != nil {
		return err
	}
	defer d.stop()
	var answers []answer
	err = measure(d, r, func() error {
		start := time.Now()
		deadline := start.Add(e.duration())
		for i := 0; time.Now().Before(deadline); i++ {
			in, st := ins[i%len(ins)], streams[i%len(ins)]
			id, err := d.conns[0].create(in)
			if r.op(err) != nil {
				return err
			}
			var last [connections]time.Time
			err = eachConn(d, func(k int, c *conn) error {
				return firehoseReader(r, c, id, st[k], &last[k])
			})
			if err != nil {
				return err
			}
			lastSend := last[0]
			if last[1].After(lastSend) {
				lastSend = last[1]
			}
			var final *serve.OrderResponse
			lat, err := r.timed(d.conns[0], lastSend, func() (err error) {
				final, err = d.conns[0].finish(id)
				return err
			})
			if err != nil {
				return err
			}
			r.add(&r.visible, lat)
			answers = append(answers, answer{final, in, len(in.reads)})
			if err := r.op(d.conns[0].drop(id)); err != nil {
				return err
			}
			r.reads += int64(len(in.reads))
			r.posts += int64(len(st[0]) + len(st[1]))
		}
		r.window = time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	verifyAll(newVerifier(w.daemon.finalize, w.batch), r, answers)
	return nil
}

// firehoseQueryEvery is how many POSTs a firehose producer sends per read
// of the live order.
const firehoseQueryEvery = 8

// firehoseReader is one aisle reader's producer: POST its bodies back to
// back, reading the live order every firehoseQueryEvery POSTs, as a
// producer checking progress would.
func firehoseReader(r *record, c *conn, id string, bodies []body, last *time.Time) error {
	for i, b := range bodies {
		t := time.Now()
		lat, err := r.timed(c, t, func() error { return c.post(id, b) })
		if err != nil {
			return err
		}
		r.add(&r.ack, lat)
		*last = t
		if i%firehoseQueryEvery == firehoseQueryEvery-1 {
			lat, err := r.timed(c, time.Now(), func() error {
				_, err := c.order(id, false)
				return err
			})
			if err != nil {
				return err
			}
			r.add(&r.query, lat)
		}
	}
	return nil
}

// queuedAtEnd records the daemon's queue depth as an open loop's window
// closes.
func queuedAtEnd(d *daemon, r *record) error {
	st, err := d.conns[0].stats()
	if r.op(err) == nil {
		r.queued = st.QueueDepthReads
	}
	return err
}

// pollEvery is the belt consumer's polling period.
const pollEvery = 20 * time.Millisecond

// runBelt streams one endless belt session open loop while a second
// connection polls the emitted-tag stream and the live order.
func runBelt(e *env, w *workload, r *record) error {
	in, err := e.belt(w)
	if err != nil {
		return err
	}
	bodies, err := chunk(in.reads, w.batch)
	if err != nil {
		return err
	}
	// lastBody[epc] is the body carrying the tag's last read: its due time
	// starts the tag's emit lag.
	lastBody := map[string]int{}
	for i, b := range bodies {
		for _, rd := range b.reads {
			lastBody[rd.EPC.String()] = i
		}
	}
	d, err := e.boot(w, r)
	if err != nil {
		return err
	}
	defer d.stop()
	id, err := d.conns[0].create(in)
	if r.op(err) != nil {
		return err
	}
	due := make([]time.Time, len(bodies))
	var sent int
	var final *serve.OrderResponse
	seen := map[string]time.Time{}
	var emitted []string
	err = measure(d, r, func() error {
		stop := make(chan struct{})
		pollErr := make(chan error, 1)
		go func() { pollErr <- pollBelt(r, d.conns[1], id, stop, seen, &emitted) }()
		start := time.Now()
		n, lat, late, err := openLoop(start, w.interval(), len(bodies), start.Add(e.duration()),
			func(i int, at time.Time) error {
				due[i] = at
				return r.op(d.conns[0].post(id, bodies[i]))
			})
		r.window = time.Since(start)
		close(stop)
		if perr := <-pollErr; err == nil {
			err = perr
		}
		if err != nil {
			return err
		}
		sent = n
		for i := range lat {
			r.add(&r.ack, ms(lat[i]))
			r.add(&r.lateness, ms(late[i]))
		}
		r.reads = int64(readsIn(bodies[:n]))
		r.posts = int64(n)
		if err := queuedAtEnd(d, r); err != nil {
			return err
		}
		final, err = d.conns[0].finish(id)
		return r.op(err)
	})
	if err != nil {
		return err
	}
	for epc, at := range seen {
		if i := lastBody[epc]; i < sent {
			r.add(&r.visible, ms(at.Sub(due[i])))
		}
	}
	// The emitted stream a poller paged through must be exactly the head of
	// the final X order: each finalized tag once, at its frozen position.
	if len(emitted) > len(final.XOrder) || !slices.Equal(emitted, final.XOrder[:len(emitted)]) {
		r.op(fmt.Errorf("session %s: polled emission stream is not a prefix of the final X order", id))
	}
	verifyAll(newVerifier(w.daemon.finalize, w.batch), r, []answer{{final, in, int(r.reads)}})
	return nil
}

// pollBelt is the belt's consumer: every pollEvery it pages the emitted
// stream from its cursor and reads the live order — one poll, timed as one
// query — noting when each tag first appears.
func pollBelt(r *record, c *conn, id string, stop <-chan struct{}, seen map[string]time.Time, emitted *[]string) error {
	var cursor int64
	for tick := time.Now(); ; tick = tick.Add(pollEvery) {
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(tick)):
		}
		start := time.Now()
		var page *serve.EmittedResponse
		if err := r.op(func() (err error) {
			page, err = c.emitted(id, cursor)
			return err
		}()); err != nil {
			return err
		}
		now := time.Now()
		for _, en := range page.Entries {
			seen[en.EPC] = now
			*emitted = append(*emitted, en.EPC)
		}
		cursor = page.NextCursor
		lat, err := r.timed(c, start, func() error {
			_, err := c.order(id, false)
			return err
		})
		if err != nil {
			return err
		}
		r.add(&r.query, lat)
	}
}

// liveSet is the rotation of sessions the query connection refreshes.
type liveSet struct {
	mu  sync.Mutex
	ids []string
	at  int
}

func (s *liveSet) add(id string) {
	s.mu.Lock()
	s.ids = append(s.ids, id)
	s.mu.Unlock()
}

func (s *liveSet) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.ids {
		if x == id {
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			return
		}
	}
}

// next returns the next session in round-robin order.
func (s *liveSet) next() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ids) == 0 {
		return "", false
	}
	s.at = (s.at + 1) % len(s.ids)
	return s.ids[s.at], true
}

// portalSlot is one of the live portal sessions: its ID, the trace it
// replays and how many of the trace's bodies it has been sent.
type portalSlot struct {
	id     string
	in     *traceInput
	bodies []body
	next   int
}

// dueFinish hands a session whose trace is fully sent to the query
// connection, with the due time of its last POST.
type dueFinish struct {
	id  string
	in  *traceInput
	due time.Time
}

// runPortals streams open loop round robin over several live airport
// sessions while a second connection forces a fresh snapshot of one live
// session after another at a fixed rate, and finishes each session whose
// trace has been fully sent.
func runPortals(e *env, w *workload, r *record) error {
	ins, err := e.portals()
	if err != nil {
		return err
	}
	bodies := make([][]body, len(ins))
	for v, in := range ins {
		if bodies[v], err = chunk(in.reads, w.batch); err != nil {
			return err
		}
	}
	d, err := e.boot(w, r)
	if err != nil {
		return err
	}
	defer d.stop()
	// Stagger the sessions across their traces before timing starts, so
	// finishes spread evenly over the run instead of arriving together.
	live := &liveSet{}
	slots := make([]*portalSlot, e.size.portalSessions)
	for j := range slots {
		s := &portalSlot{in: ins[j%len(ins)], bodies: bodies[j%len(ins)]}
		s.next = j * len(s.bodies) / len(slots)
		if s.id, err = d.conns[0].create(s.in); r.op(err) != nil {
			return err
		}
		for _, b := range s.bodies[:s.next] {
			if err := r.op(d.conns[0].post(s.id, b)); err != nil {
				return err
			}
		}
		if s.next > 0 {
			live.add(s.id)
		}
		slots[j] = s
	}
	var answers []answer
	err = measure(d, r, func() error {
		// Far more sessions than can complete during one refresh.
		finishQ := make(chan dueFinish, 64)
		queryErr := make(chan error, 1)
		queryDone := make(chan struct{})
		go func() {
			defer close(queryDone)
			queryErr <- portalQueries(r, d.conns[1], live, finishQ, &answers)
		}()
		start := time.Now()
		_, lat, late, err := openLoop(start, w.interval(), math.MaxInt, start.Add(e.duration()),
			func(i int, due time.Time) error {
				s := slots[i%len(slots)]
				b := s.bodies[s.next]
				if err := r.op(d.conns[0].post(s.id, b)); err != nil {
					return err
				}
				if s.next == 0 {
					live.add(s.id)
				}
				s.next++
				r.reads += int64(len(b.reads))
				r.posts++
				if s.next < len(s.bodies) {
					return nil
				}
				live.remove(s.id)
				select {
				case finishQ <- dueFinish{id: s.id, in: s.in, due: due}:
				case <-queryDone:
					return fmt.Errorf("the query connection stopped")
				}
				id, err := d.conns[0].create(s.in)
				s.id, s.next = id, 0
				return r.op(err)
			})
		r.window = time.Since(start)
		close(finishQ)
		if qerr := <-queryErr; err == nil {
			err = qerr
		}
		if err != nil {
			return err
		}
		for i := range lat {
			r.add(&r.ack, ms(lat[i]))
			r.add(&r.lateness, ms(late[i]))
		}
		if err := queuedAtEnd(d, r); err != nil {
			return err
		}
		// Sessions still mid-trace are dropped unverified: only a session
		// that received its whole trace has an answer to hold it to.
		for _, s := range slots {
			if err := r.op(d.conns[0].drop(s.id)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	verifyAll(newVerifier(w.daemon.finalize, w.batch), r, answers)
	return nil
}

// refreshEvery is the portals' refresh period. The refreshes keep a fixed
// rate, well inside what one connection sustains, instead of following
// each other as fast as the daemon answers: a closed loop would make the
// daemon's work per read, and its contention with ingest, depend on how
// fast it answers.
const refreshEvery = 2 * time.Millisecond

// portalQueries is the portals' query connection: finish whatever the
// ingest side hands over, and every refreshEvery force a fresh snapshot
// of the next live session.
func portalQueries(r *record, c *conn, live *liveSet, finishQ <-chan dueFinish, answers *[]answer) error {
	for tick := time.Now(); ; {
		select {
		case f, ok := <-finishQ:
			if !ok {
				return nil
			}
			var final *serve.OrderResponse
			lat, err := r.timed(c, f.due, func() (err error) {
				final, err = c.finish(f.id)
				return err
			})
			if err != nil {
				return err
			}
			r.add(&r.visible, lat)
			*answers = append(*answers, answer{final, f.in, len(f.in.reads)})
			if err := r.op(c.drop(f.id)); err != nil {
				return err
			}
			continue
		case <-time.After(time.Until(tick)):
		}
		tick = tick.Add(refreshEvery)
		id, ok := live.next()
		if !ok {
			continue // nothing live yet
		}
		lat, err := r.timed(c, time.Now(), func() error {
			_, err := c.order(id, true)
			return err
		})
		if err != nil {
			return err
		}
		r.add(&r.query, lat)
	}
}

// eachConn runs f once per connection, concurrently, and joins the errors.
func eachConn(d *daemon, f func(k int, c *conn) error) error {
	var wg sync.WaitGroup
	var errs [connections]error
	for k, c := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = f(k, c)
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// Package sched is the process-global task scheduler every parallel
// component of the repository runs on: the streaming engine's per-tag
// detection fan-out, the sharded deployment's concurrent shard snapshots,
// the experiment runner's repetition pool, the ingest daemon's
// per-session consumers and its boot-time recovery replay.
//
// There is ONE pool, sized to GOMAXPROCS (or to New's argument in
// tests), and its width is the only parallelism setting: no caller caps
// its own share. A job is worked by the caller plus whichever pool
// workers are free to join it. The pool is a fixed set of persistent
// worker goroutines sharing one queue: a FIFO per group, served in
// rotation (see Fairness below). Every runnable item — a spawned task or
// a join ticket for a parallel-for job — enters and leaves through it.
//
// Two kinds of work exist:
//
//   - Spawned tasks (Go): plain closures, e.g. one ingest session's queue
//     drain. They run exactly once on some worker.
//
//   - Parallel-for jobs (For/ForRuns): fn(i) over [0, n) with
//     a result-slot contract — fn(i) may write slot i of
//     a caller-owned slice and the caller observes every write after For
//     returns, regardless of which worker ran which index. Indices are
//     claimed from a shared atomic cursor in contiguous blocks (the
//     cache-blocked runs batched detection wants), so joining a job
//     takes a single atomic add per block, and the claim order is
//     ascending. The CALLER participates too: For always makes progress
//     even with every worker busy elsewhere, which is what makes nested
//     For deadlock-free. A worker that joins re-posts one join ticket to
//     the job's group FIFO while work remains, so discovery spreads
//     worker to worker: each helper that joins invites the next.
//
// Fairness: every piece of work is tagged with a Group (one per ingest
// session, one per engine, one anonymous default). Groups are served in
// rotation, preferring the group with the fewest workers already on its
// work — so one enormous session cannot monopolize the pool while a small
// session's snapshot waits behind its backlog, even when a single worker
// serves everything. The rule covers helpers joining a running job as
// well as fresh work. Within a group, items run FIFO. A join ticket whose
// job has no unclaimed indices left is dropped when its group is next
// picked.
//
// The queue and parking are guarded by one mutex — work items here are
// coarse (a per-tag detection is tens of microseconds, a session drain
// much more), so the lock is taken at most once per item, far off the
// hot path; index claiming inside a job is lock-free.
package sched

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Group tags work with the session/engine it belongs to, for fairness
// accounting. The zero of its counters is ready to use; create Groups
// with (*Scheduler).NewGroup.
type Group struct {
	s    *Scheduler
	name string
	// inflight counts workers currently executing this group's work
	// (spawned tasks and for-job participants alike).
	inflight atomic.Int32
	// pending is this group's FIFO; guarded by s.mu. The group sits in
	// s.ring exactly while pending is non-empty.
	pending []item
}

// Name returns the group's label.
func (g *Group) Name() string { return g.name }

// Go submits fn under this group's fairness accounting.
func (g *Group) Go(fn func()) { g.s.Go(g, fn) }

// For runs fn(i) over [0, n) under this group. See (*Scheduler).For.
func (g *Group) For(n int, fn func(int)) { g.s.For(g, n, fn) }

// ForRuns hands each claimed block to fn as a [lo, hi) range. See
// (*Scheduler).ForRuns.
func (g *Group) ForRuns(n, block int, fn func(lo, hi int)) {
	g.s.ForRuns(g, n, block, fn)
}

// item is one queue entry: either a spawned task (fn != nil) or a
// join ticket for a parallel-for job (job != nil).
type item struct {
	g   *Group
	fn  func()
	job *forJob
}

// forJob is one parallel-for in flight. Participants claim ascending
// blocks of indices from next; done counts finished indices and the last
// finisher closes fin.
type forJob struct {
	g *Group
	// Exactly one of fn / fnRun is set: fn receives single indices (For
	// claims blocks of 1), fnRun whole claimed [lo, hi) ranges (ForRuns).
	fn    func(int)
	fnRun func(lo, hi int)
	n     int64
	block int64
	next  atomic.Int64
	done  atomic.Int64
	fin   chan struct{}
}

// Scheduler is a fixed-width worker pool. The zero value is not
// usable; call New or Default.
type Scheduler struct {
	nworkers int

	mu      sync.Mutex
	cond    *sync.Cond
	started bool
	stopped bool
	// ring holds the groups with pending work, in rotation order; rr is
	// where the next pick starts scanning.
	ring []*Group
	rr   int
	idle int
	wg   sync.WaitGroup

	defGroup Group
}

var (
	defaultOnce sync.Once
	defaultSch  *Scheduler
)

// Default returns the process-global scheduler, sized to GOMAXPROCS at
// first use. Its workers start lazily on the first submission.
func Default() *Scheduler {
	defaultOnce.Do(func() { defaultSch = New(0) })
	return defaultSch
}

// New builds a scheduler with the given worker count (0 = GOMAXPROCS).
// Independent schedulers exist for tests; production code shares Default.
func New(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{nworkers: workers}
	s.cond = sync.NewCond(&s.mu)
	s.defGroup.s = s
	s.defGroup.name = "default"
	return s
}

// Workers reports the pool width.
func (s *Scheduler) Workers() int { return s.nworkers }

// NewGroup creates a fairness-accounting handle, typically one per
// session or engine.
func (s *Scheduler) NewGroup(name string) *Group {
	return &Group{s: s, name: name}
}

// Stop terminates the worker goroutines after the queues drain of
// already-submitted spawned tasks; for tests. Submitting after Stop
// panics. The Default scheduler is never stopped.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// startLocked launches the worker goroutines once. Callers hold s.mu.
func (s *Scheduler) startLocked() {
	if s.started {
		return
	}
	s.started = true
	s.wg.Add(s.nworkers)
	for range s.nworkers {
		go s.run()
	}
}

// Go submits fn to run exactly once on some worker. A nil g accounts to
// the scheduler's default group.
func (s *Scheduler) Go(g *Group, fn func()) {
	if g == nil {
		g = &s.defGroup
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		panic("sched: Go on stopped scheduler")
	}
	s.startLocked()
	s.injectLocked(g, item{g: g, fn: fn})
	s.cond.Signal()
	s.mu.Unlock()
}

// injectLocked appends an item to its group's pending FIFO, entering the
// group into the service rotation if it was empty. Callers hold s.mu.
func (s *Scheduler) injectLocked(g *Group, it item) {
	if len(g.pending) == 0 {
		s.ring = append(s.ring, g)
	}
	g.pending = append(g.pending, it)
}

// For runs fn(i) for every i in [0, n) and returns when all are done.
// The caller participates alongside any free pool workers, so For
// completes even if every worker is busy — nested For from inside a task
// cannot deadlock — and on a stopped scheduler the caller runs every
// index alone. Result-slot contract: writes fn makes to slot i are
// visible to the caller after For returns. n == 1 runs fn(0) inline.
func (s *Scheduler) For(g *Group, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	s.runJob(g, &forJob{fn: fn, n: int64(n), block: 1})
}

// ForRuns is For with indices claimed in contiguous blocks, each handed
// to fn whole: participants grab [lo, hi) per atomic claim — block wide
// except possibly the last — so a batched kernel processes the run in one
// pass instead of being re-entered per index. block <= 0 means 1. A
// single block's worth of work runs inline as fn(0, n).
func (s *Scheduler) ForRuns(g *Group, n, block int, fn func(lo, hi int)) {
	if block <= 0 {
		block = 1
	}
	if n <= 0 {
		return
	}
	if n <= block {
		fn(0, n)
		return
	}
	s.runJob(g, &forJob{fnRun: fn, n: int64(n), block: int64(block)})
}

// runJob completes j under g (nil: the default group): it announces the
// job so idle workers can join, works it on the calling goroutine, and
// waits out stragglers.
func (s *Scheduler) runJob(g *Group, j *forJob) {
	if g == nil {
		g = &s.defGroup
	}
	j.g, j.fin = g, make(chan struct{})
	// Announce the job so idle workers can join, then work it ourselves.
	s.mu.Lock()
	if !s.stopped {
		s.startLocked()
		s.injectLocked(g, item{g: g, job: j})
		s.cond.Signal()
	}
	s.mu.Unlock()
	j.work(s, false)
	// Our claims are exhausted; stragglers may still be finishing theirs.
	if j.done.Load() < j.n {
		<-j.fin
	}
}

// work participates in a for-job: claim blocks until the cursor runs dry.
// helper is true on a pool worker, false on the submitting caller. While
// substantial work remains, a helper re-posts a join ticket to the job's
// group FIFO so the next free worker can join too.
func (j *forJob) work(s *Scheduler, helper bool) {
	j.g.inflight.Add(1)
	propagated := false
	for {
		i := j.next.Add(j.block) - j.block
		if i >= j.n {
			break
		}
		if !propagated && helper && j.n-i > j.block {
			propagated = true
			s.mu.Lock()
			if !s.stopped {
				s.injectLocked(j.g, item{g: j.g, job: j})
				s.cond.Signal()
			}
			s.mu.Unlock()
		}
		hi := i + j.block
		if hi > j.n {
			hi = j.n
		}
		if j.fnRun != nil {
			j.fnRun(int(i), int(hi))
		} else {
			j.fn(int(i))
		}
		if j.done.Add(hi-i) == j.n {
			close(j.fin)
		}
	}
	j.g.inflight.Add(-1)
}

// run is one worker's main loop.
func (s *Scheduler) run() {
	defer s.wg.Done()
	for {
		it, ok := s.take()
		if !ok {
			return
		}
		if it.fn != nil {
			it.g.inflight.Add(1)
			it.fn()
			it.g.inflight.Add(-1)
			continue
		}
		it.job.work(s, true)
	}
}

// take finds the next item: the fairest group first, FIFO within a
// group. Parks when nothing is runnable; returns ok=false when the
// scheduler stops.
func (s *Scheduler) take() (item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if it, ok := s.pickLocked(); ok {
			return it, true
		}
		if s.stopped {
			return item{}, false
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
}

// pickLocked takes the next queued item: the group with minimal
// in-flight count wins, ties going to the group closest after the
// rotation cursor, so groups interleave even when a single worker drains
// everything. Exhausted join tickets are dropped as they surface, and
// every pop zeroes the slot it vacates: a stale item left in a backing
// array keeps its finished job — and everything the job's closure
// captured — reachable until some later push happens to overwrite the
// slot. Callers hold s.mu.
func (s *Scheduler) pickLocked() (item, bool) {
	for len(s.ring) > 0 {
		n := len(s.ring)
		best := -1
		var bestIn int32
		for k := 0; k < n; k++ {
			idx := (s.rr + k) % n
			if in := s.ring[idx].inflight.Load(); best < 0 || in < bestIn {
				best, bestIn = idx, in
			}
		}
		g := s.ring[best]
		for len(g.pending) > 0 && !g.pending[0].live() {
			g.pending[0] = item{}
			g.pending = g.pending[1:]
		}
		var it item
		ok := len(g.pending) > 0
		if ok {
			it = g.pending[0]
			g.pending[0] = item{}
			g.pending = g.pending[1:]
		}
		if len(g.pending) == 0 {
			g.pending = nil // release the drained FIFO's backing array
			s.ring = slices.Delete(s.ring, best, best+1)
			if s.rr > best {
				s.rr--
			}
			if len(s.ring) > 0 {
				s.rr %= len(s.ring)
			} else {
				s.rr = 0
			}
		} else {
			s.rr = (best + 1) % len(s.ring)
		}
		if ok {
			return it, true
		}
	}
	return item{}, false
}

// live reports whether an item still has work: spawned tasks always do,
// join tickets only while their job has unclaimed indices.
func (it item) live() bool {
	return it.fn != nil || it.job.next.Load() < it.job.n
}

// Stats is a point-in-time sample of the scheduler, for /v1/stats and
// debugging.
type Stats struct {
	Workers int `json:"workers"`
	Idle    int `json:"idle"`
	Queued  int `json:"queued"`
}

// Stats samples the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := 0
	for _, g := range s.ring {
		q += len(g.pending)
	}
	return Stats{Workers: s.nworkers, Idle: s.idle, Queued: q}
}

package serve

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/sched"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Session drain states. A session's consumer is a drain task, scheduled
// on the shared scheduler pool whenever there is something to do, so ten
// thousand idle sessions cost ten thousand idle structs, not ten thousand
// parked goroutines.
const (
	stateIdle   = int32(iota) // no drain task scheduled; queue empty at last look
	stateActive               // exactly one drain task scheduled or running
	stateDead                 // terminal: the engine is gone, done is closed
)

// ErrSessionClosed is returned by Enqueue after Finish (or an abort) has
// closed the session's ingest side.
var ErrSessionClosed = errors.New("serve: session closed to new reads")

// noReadsError marks a snapshot that failed on a session that had consumed
// no reads when it was taken: the warming-up state, not a failure. It is
// decided by the engine owner at snapshot time; a caller that sampled the
// consumed count afterwards could see reads that arrived after the
// snapshot, since the drain serves control requests before its queue.
type noReadsError struct{ error }

// ErrTooManyTags is returned by Enqueue when the session's resident-tag
// gauge is at Options.MaxActiveTags: the stream is feeding tags faster
// than the lifecycle retires them, and admitting more would let memory
// grow unbounded. The HTTP layer maps it to 429.
var ErrTooManyTags = errors.New("serve: session at max active tags")

// Snapshot is one published localization state of a session: the stitched
// global result at some point in the consumed stream.
type Snapshot struct {
	// Result is the deployment-wide snapshot (global X/Y orders plus
	// per-zone results). On the final snapshot the per-tag raw profiles
	// are dropped (Tags[i].Profile == nil): keys and orders remain
	// queryable while a finished session releases the read data.
	Result *deploy.GlobalResult
	// Reads is the number of reads consumed when the snapshot was taken.
	Reads int64
	// Final marks the snapshot taken at Finish, over the fully drained
	// stream.
	Final bool
	// At stamps the snapshot; Latency is how long the engine took.
	At      time.Time
	Latency time.Duration
}

// Session is one deployment's live ingest stream. Producers call Enqueue
// from any number of goroutines; the sharded engine is owned by at most
// one scheduler-run drain task at a time (the state machine above), so
// Consume and Snapshot stay single-threaded without a dedicated
// goroutine. Readers of Latest never block on the engine.
type Session struct {
	ID string

	srv     *Server
	eng     *deploy.ShardedEngine
	group   *sched.Group
	validID map[int]bool

	ctrl chan ctrlReq
	quit chan struct{} // closed by abort: terminate the consumer, unblock producers
	done chan struct{} // closed when the consumer has terminated

	// state is the drain-task machine: Idle -> Active on schedule(),
	// Active -> Idle when a drain finds nothing runnable, anything -> Dead
	// exactly once at termination. The Active holder is the engine's sole
	// owner.
	state atomic.Int32
	// sincePublish counts consumed reads since the last periodic publish;
	// sinceCheckpoint counts them since the last WAL checkpoint. Both are
	// touched only by the engine owner.
	sincePublish    int
	sinceCheckpoint int
	// ckptBuf is the reused engine-checkpoint serialization buffer, owned
	// by the engine owner.
	ckptBuf []byte

	// The ingest queue: a bounded FIFO of batches under qmu, paced by
	// qcond. Admission (the capacity check), the enqueue, and the queued
	// gauge move under one lock, so the gauge can never overshoot the
	// QueueBatches × MaxBatch bound the way a pre-counted channel send
	// could — the depth a Stats query reports is exact, not transient.
	// Producers that find the queue full wait on qcond; drain tasks never
	// wait (popBatch is non-blocking), so scheduler workers cannot be
	// stranded on ingest backpressure.
	qmu      sync.Mutex
	qcond    *sync.Cond
	q        [][]reader.TagRead
	qhead    int
	closed   bool
	stopOnce sync.Once

	// wal, when non-nil, journals every accepted batch before it becomes
	// visible to the consumer; walDir is the journal's directory, kept
	// even after the log closes so eviction/drop can delete it. Lock
	// order: qmu before walMu (Enqueue holds qmu.RLock while journaling).
	walMu  sync.Mutex
	wal    *wal.Log
	walDir string

	latest atomic.Pointer[Snapshot]

	errMu   sync.Mutex
	failure error

	enqueued   atomic.Int64 // reads accepted into the queue
	consumed   atomic.Int64 // reads consumed by the engine
	queued     atomic.Int64 // reads currently waiting in the queue
	stalls     atomic.Int64 // enqueues that found the queue full
	stallNanos atomic.Int64 // cumulative producer time blocked on the full queue

	// Lifecycle gauges and counters. activeTags is the resident
	// (reader, tag) profile count, maintained by the engine owner after
	// every consume and snapshot and sampled lock-free by the
	// MaxActiveTags admission check and the stats endpoints. life is the
	// coherent lifecycle sample published wholesale after every snapshot
	// — the stats endpoint reads one pointer, so it can never pair a
	// finalized count from one sweep with a discarded count from another
	// the way loading independent atomics field-by-field could. The
	// prev* fields (engine-owner only) track what was already forwarded
	// to the server-wide metrics.
	activeTags    atomic.Int64
	life          atomic.Pointer[lifecycleView]
	limitRejects  atomic.Int64
	prevFinalized int64
	prevDiscarded int64
	prevLate      int64
}

// lifecycleView is one coherent sample of a session's lifecycle counters,
// taken by the engine owner right after the sweep that moved them.
type lifecycleView struct {
	finalized int64
	discarded int64
	lateReads int64
}

// newSession builds the session's engine from the trace header via the
// shared deploy.FromHeader derivation.
func newSession(id string, srv *Server, h trace.Header) (*Session, error) {
	d := deploy.FromHeader(h, srv.opts.Config, false, false)
	group := srv.sched.NewGroup(id)
	eng, err := deploy.NewSharded(d, deploy.Options{
		Group: group,
		Finalize: stpp.FinalizePolicy{
			After:  srv.opts.FinalizeAfter,
			Margin: srv.opts.FinalizeMargin,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("serve: session header: %w", err)
	}
	valid := make(map[int]bool, len(d.Readers))
	for _, r := range d.Readers {
		valid[r.ID] = true
	}
	s := &Session{
		ID:      id,
		srv:     srv,
		eng:     eng,
		group:   group,
		validID: valid,
		ctrl:    make(chan ctrlReq, 8),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.qcond = sync.NewCond(&s.qmu)
	return s, nil
}

// ValidReader reports whether a read stamped with this reader ID routes
// to a shard of this session's deployment.
func (s *Session) ValidReader(id int) bool { return s.validID[id] }

// Enqueue pushes one batch into the session's bounded queue, blocking
// while the queue is full — the backpressure that keeps per-session
// memory bounded. The batch must not be mutated by the caller afterwards.
// Safe for concurrent producers; reads interleave at batch granularity
// (per-tag profiles are time-sorted downstream, so the final result does
// not depend on producer interleaving).
func (s *Session) Enqueue(batch []reader.TagRead) error {
	if len(batch) == 0 {
		return nil
	}
	// The MaxActiveTags admission valve: fail fast instead of blocking
	// when the stream feeds tags faster than the lifecycle retires them.
	// The gauge lags by whatever is queued, so this bounds growth rather
	// than enforcing an exact cap; producers should back off and retry.
	if limit := s.srv.opts.MaxActiveTags; limit > 0 && s.activeTags.Load() >= int64(limit) {
		s.limitRejects.Add(1)
		s.srv.metrics.limitRejects.Add(1)
		return ErrTooManyTags
	}
	s.qmu.Lock()
	if full := len(s.q)-s.qhead >= s.srv.opts.QueueBatches; full && !s.closed {
		s.stalls.Add(1)
		s.srv.metrics.stalls.Add(1)
		t0 := time.Now()
		for len(s.q)-s.qhead >= s.srv.opts.QueueBatches && !s.closed {
			s.qcond.Wait()
		}
		ns := time.Since(t0).Nanoseconds()
		s.stallNanos.Add(ns)
		s.srv.metrics.stallNanos.Add(ns)
	}
	if s.closed {
		s.qmu.Unlock()
		return ErrSessionClosed
	}
	// Journal-before-visible: the batch reaches the WAL (written to the
	// OS, fsync pending below) before the queue, so the log and the engine
	// never disagree about what was accepted. qmu is held throughout, so
	// Finish (which takes qmu before journaling its marker) can never
	// interleave the finish record between a batch's journal append and
	// its enqueue.
	seq, log, err := s.journalAsync(batch)
	if err != nil {
		s.qmu.Unlock()
		return err
	}
	// Counters rise with the batch under the same lock that admitted it:
	// ingested leads consumed at every instant, and the depth gauge is
	// exactly the queued reads — a producer still waiting for space
	// contributes nothing.
	n := int64(len(batch))
	s.queued.Add(n)
	s.enqueued.Add(n)
	s.srv.metrics.readsIngested.Add(n)
	s.q = append(s.q, batch)
	s.qmu.Unlock()
	// The batch is visible; make sure a drain task is coming for it.
	s.schedule()
	// Group commit: ack the producer only once the append is on stable
	// storage, but let the drain start on the batch while the fsync is in
	// flight — concurrent producers coalesce into one sync. The "everything
	// a producer was acked for is on disk" invariant is unchanged; what
	// shifts is that a batch whose fsync FAILS is already visible to the
	// consumer even though its producer gets an error (counted below).
	if log != nil && seq > 0 {
		if err := log.WaitDurable(seq); err != nil {
			s.srv.metrics.walErrors.Add(1)
			return fmt.Errorf("serve: wal sync: %w", err)
		}
	}
	return nil
}

// schedule ensures a drain task is scheduled while the session has work.
// Every producer-side event (a queued batch, a closed queue, a control
// request, an abort) calls it AFTER the event is visible: either the CAS
// wins and the new task sees the event, or a task is already active and
// its idle transition re-checks pending() before it lets go.
func (s *Session) schedule() {
	if s.state.CompareAndSwap(stateIdle, stateActive) {
		s.srv.sched.Go(s.group, s.drain)
	}
}

// Finish closes the ingest side, waits for the consumer to drain the
// queue, and returns the final snapshot — identical to an offline replay
// of the same reads. Subsequent Enqueues fail with ErrSessionClosed;
// Finish is idempotent.
func (s *Session) Finish() (*Snapshot, error) {
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		// The finish marker lands after every journaled batch (qmu is held
		// exclusively, so no Enqueue is mid-append) and is fsynced: once a
		// client sees Finish succeed, recovery rebuilds the session as
		// finished.
		s.journalFinish()
		// Producers waiting for space find the session closed and fail.
		s.qcond.Broadcast()
	}
	s.qmu.Unlock()
	s.schedule()
	<-s.done
	s.closeWAL()
	if err := s.Err(); err != nil {
		return nil, err
	}
	snap := s.latest.Load()
	if snap == nil || !snap.Final {
		return nil, fmt.Errorf("serve: session %s finished without a final snapshot", s.ID)
	}
	return snap, nil
}

// stop signals the consumer to terminate and unblocks stalled producers.
func (s *Session) stop() {
	s.stopOnce.Do(func() { close(s.quit) })
}

// shutdownQueue runs as the consumer's last act on every exit path: it
// closes the ingest side, releases whatever batches are still queued so
// the depth gauge returns to zero, and wakes producers waiting for space
// (they fail with ErrSessionClosed).
func (s *Session) shutdownQueue() {
	s.stop()
	s.qmu.Lock()
	s.closed = true
	for i := s.qhead; i < len(s.q); i++ {
		s.queued.Add(-int64(len(s.q[i])))
	}
	s.q, s.qhead = nil, 0
	s.qcond.Broadcast()
	s.qmu.Unlock()
}

// abort terminates the consumer without draining and unblocks stalled
// producers.
func (s *Session) abort() {
	s.stop()
	s.schedule()
	<-s.done
	s.closeWAL()
}

// attachWAL hands the session its journal. Called before the session is
// reachable by producers (session creation and boot recovery).
func (s *Session) attachWAL(l *wal.Log) {
	s.walMu.Lock()
	s.wal = l
	s.walMu.Unlock()
}

// journalAsync appends one accepted batch to the WAL without waiting for
// its fsync, returning the durability handle for the caller to wait on
// AFTER releasing qmu; a nil log (in-memory sessions, boot-recovery
// replay) is a no-op returning (0, nil, nil). The returned log pointer
// keeps the wait valid even if the session detaches its WAL concurrently.
func (s *Session) journalAsync(batch []reader.TagRead) (int64, *wal.Log, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return 0, nil, nil
	}
	seq, err := s.wal.AppendBatchAsync(batch)
	if err != nil {
		s.srv.metrics.walErrors.Add(1)
		return 0, nil, fmt.Errorf("serve: wal append: %w", err)
	}
	s.srv.metrics.walAppends.Add(1)
	return seq, s.wal, nil
}

// checkpoint serializes the engine state into a WAL checkpoint record and
// truncates the segments it makes redundant. It runs on the drain task —
// the engine's exclusive owner, so the state is quiescent — and holds qmu
// across the append so the uncovered count (journaled batches still in
// the queue) is exact: no batch can slip into the journal between the
// count and the record. Failures are non-fatal: the log simply keeps its
// history until the next checkpoint lands.
func (s *Session) checkpoint() {
	if s.eng == nil {
		return
	}
	blob := s.eng.Checkpoint(s.ckptBuf[:0])
	s.ckptBuf = blob
	s.qmu.Lock()
	if s.closed {
		// Finish journaled its marker under qmu; the finish marker must be
		// the log's last record (recovery treats anything after it as a
		// torn tail), so draining the post-close backlog checkpoints no
		// more. Those batches are replayed from their own records at boot.
		s.qmu.Unlock()
		return
	}
	uncovered := int64(len(s.q) - s.qhead)
	reads := s.consumed.Load()
	s.walMu.Lock()
	if s.wal == nil {
		s.walMu.Unlock()
		s.qmu.Unlock()
		return
	}
	truncated, err := s.wal.AppendCheckpoint(uncovered, reads, blob)
	s.walMu.Unlock()
	s.qmu.Unlock()
	s.srv.metrics.segmentsTruncated.Add(int64(truncated))
	if err != nil {
		s.srv.metrics.walErrors.Add(1)
		return
	}
	s.srv.metrics.walAppends.Add(1)
	s.srv.metrics.checkpointsWritten.Add(1)
}

// journalFinish appends the finish marker. A failed append degrades to
// at-least-once: the caller still gets its final snapshot, and the next
// boot recovers the session live instead of finished.
func (s *Session) journalFinish() {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return
	}
	if err := s.wal.AppendFinish(); err != nil {
		s.srv.metrics.walErrors.Add(1)
		return
	}
	s.srv.metrics.walAppends.Add(1)
}

// closeWAL seals the journal file; the directory (and walDir) remain for
// recovery or a later discard.
func (s *Session) closeWAL() {
	s.walMu.Lock()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	s.walMu.Unlock()
}

// discardWAL closes the journal and deletes it from disk — dropped and
// evicted sessions must not resurrect at the next boot.
func (s *Session) discardWAL() {
	s.closeWAL()
	s.walMu.Lock()
	dir := s.walDir
	s.walDir = ""
	s.walMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// Latest returns the most recently published snapshot without touching
// the engine; nil until the first snapshot lands.
func (s *Session) Latest() *Snapshot { return s.latest.Load() }

// Err reports a consumer-side failure (a shard rejecting reads or a
// failed final snapshot), if any.
func (s *Session) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.failure
}

func (s *Session) setErr(err error) {
	s.errMu.Lock()
	if s.failure == nil {
		s.failure = err
	}
	s.errMu.Unlock()
}

func (s *Session) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Enqueued and Consumed report the session's read counters; Queued is the
// current queue depth in reads.
func (s *Session) Enqueued() int64 { return s.enqueued.Load() }
func (s *Session) Consumed() int64 { return s.consumed.Load() }
func (s *Session) Queued() int64   { return s.queued.Load() }

// Stalls reports how many enqueues found the queue full and had to wait.
func (s *Session) Stalls() int64 { return s.stalls.Load() }

// StallSeconds reports the cumulative time producers spent blocked on
// this session's full queue.
func (s *Session) StallSeconds() float64 { return float64(s.stallNanos.Load()) / 1e9 }

// lifecycle returns the last published coherent lifecycle sample (zero
// before the first snapshot).
func (s *Session) lifecycle() lifecycleView {
	if lv := s.life.Load(); lv != nil {
		return *lv
	}
	return lifecycleView{}
}

type ctrlReq struct {
	reply chan ctrlResp
}

type ctrlResp struct {
	snap *Snapshot
	err  error
}

// Refresh takes a snapshot of everything consumed so far (on the drain
// task that owns the engine) and publishes it. After Finish it returns
// the final snapshot. It blocks for at most one snapshot's latency behind
// whatever batch the consumer is currently absorbing.
func (s *Session) Refresh() (*Snapshot, error) {
	req := ctrlReq{reply: make(chan ctrlResp, 1)}
	select {
	case s.ctrl <- req:
		// Request is visible; a drain task will serve it — unless the
		// session terminates first, in which case done unblocks us and the
		// finished-session answer below applies.
		s.schedule()
		select {
		case resp := <-req.reply:
			return resp.snap, resp.err
		case <-s.done:
		}
	case <-s.done:
	}
	// A terminated session answers with what it has: its failure, or its
	// last published snapshot.
	if err := s.Err(); err != nil {
		return nil, err
	}
	if snap := s.latest.Load(); snap != nil {
		return snap, nil
	}
	return nil, fmt.Errorf("serve: session %s has no snapshot", s.ID)
}

// drainYield is how many batches one drain task absorbs before requeueing
// itself, so a firehose session shares the pool with its neighbors at a
// bounded granularity. Requeueing after every batch measured slower on
// the query workload (README, "Drain yield").
const drainYield = 32

// drain is the session's consumer, run as a scheduler task while
// state == Active. It owns the engine exclusively: the state machine
// admits one drain at a time, and hand-offs (requeue, idle transition,
// schedule) all cross the scheduler's or the state atomic's
// happens-before edges. It consumes one queued batch per pass and runs
// the publish and checkpoint cadences after each, so both land on the
// same consumed prefixes however deep the queue was.
func (s *Session) drain() {
	batches := 0
	for {
		select {
		case <-s.quit:
			s.terminate()
			return
		default:
		}
		// Control requests are served before the queue so Refresh latency
		// stays one snapshot, not one backlog.
		select {
		case req := <-s.ctrl:
			snap, err := s.takeSnapshot(false)
			req.reply <- ctrlResp{snap: snap, err: err}
			continue
		default:
		}
		batch, closed := s.popBatch()
		if batch == nil {
			if closed {
				// Ingest side closed and the queue is drained: publish the
				// final snapshot and retire.
				if _, err := s.takeSnapshot(true); err != nil {
					s.setErr(err)
				}
				s.terminate()
				return
			}
			// Nothing runnable. Step down, then re-check: an event that
			// arrived between our polls and the Store saw state Active and
			// did not schedule — it is ours to pick up, via a fresh CAS.
			s.state.Store(stateIdle)
			if !s.pending() {
				return
			}
			if !s.state.CompareAndSwap(stateIdle, stateActive) {
				// Someone else's schedule() won the CAS; their task takes
				// over.
				return
			}
			continue
		}
		if !s.consume(batch) {
			// Stop consuming so Finish surfaces the failure; the shutdown
			// path releases any batches still queued.
			s.terminate()
			return
		}
		s.maybePublish(len(batch))
		if ce := s.srv.opts.CheckpointEvery; ce > 0 {
			if s.sinceCheckpoint += len(batch); s.sinceCheckpoint >= ce {
				s.checkpoint()
				s.sinceCheckpoint = 0
			}
		}
		if batches++; batches >= drainYield {
			// Yield the worker: requeue ourselves (state stays Active,
			// so producers won't double-schedule) and let the fairness
			// pick decide who runs next.
			s.srv.sched.Go(s.group, s.drain)
			return
		}
	}
}

// consume feeds one batch to the engine, the step the drain and boot
// replay share, and moves the consumed counters and the resident-tag
// gauge. A batch the engine rejects parks its error in Err and returns
// false: the HTTP path pre-validates reader IDs, but the exported Enqueue
// does not, and a journaled batch can meet a config that has drifted
// since it was written.
func (s *Session) consume(batch []reader.TagRead) bool {
	if err := s.eng.Consume(batch); err != nil {
		s.setErr(err)
		return false
	}
	n := int64(len(batch))
	s.consumed.Add(n)
	s.srv.metrics.readsConsumed.Add(n)
	s.activeTags.Store(int64(s.eng.Tags()))
	return true
}

// popBatch takes the batch at the head of the queue, moving the depth
// gauge under the same lock — space opens and the gauge drops atomically,
// so a producer admitted into the freed slot can never observe (or cause)
// a depth above the bound. A nil batch means the queue is empty (Enqueue
// never queues an empty one); closed then tells the drain whether that is
// terminal.
func (s *Session) popBatch() (batch []reader.TagRead, closed bool) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qhead == len(s.q) {
		return nil, s.closed
	}
	batch = s.q[s.qhead]
	s.q[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.q) {
		s.q, s.qhead = s.q[:0], 0
	}
	s.queued.Add(-int64(len(batch)))
	s.qcond.Signal()
	return batch, false
}

// pending reports whether the session has anything a drain task should
// handle: an abort, a control request, queued batches, or a closed ingest
// side awaiting its final snapshot.
func (s *Session) pending() bool {
	select {
	case <-s.quit:
		return true
	default:
	}
	if len(s.ctrl) > 0 {
		return true
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return s.qhead < len(s.q) || s.closed
}

// terminate retires the session: it shuts the queue, drops the engine,
// counts the finish and closes done. Runs exactly once, from the drain
// task that owns the engine (or from replay, before the session is
// reachable).
func (s *Session) terminate() {
	s.state.Store(stateDead)
	s.shutdownQueue()
	// A dropped or aborted session retires with a non-final latest
	// snapshot whose per-shard results still pin every tag's raw profile
	// — replace it with a stripped copy so the retained snapshot costs
	// keys and orders, not read data. (The final-snapshot path already
	// published a stripped result.)
	if snap := s.latest.Load(); snap != nil && !snap.Final {
		cp := *snap
		cp.Result = stripProfiles(snap.Result)
		s.latest.Store(&cp)
	}
	// The engine owner drops the reference on exit: a finished session
	// keeps just its published snapshot, not the engine's profiles and
	// caches. Close returns pooled holdings — the per-tag DTW decision
	// arrays — to their free-lists AND drops the engine's own references
	// to profiles, caches and detection states, so an evicted session
	// stops pinning them the moment it goes away, not whenever the last
	// stale snapshot pointer dies.
	if s.eng != nil {
		s.eng.Close()
	}
	s.eng = nil
	s.ckptBuf = nil
	s.activeTags.Store(0)
	s.srv.metrics.sessionsFinished.Add(1)
	close(s.done)
}

// replay feeds a recovered log straight into the engine. It runs as one
// scheduler task per session during boot, before the server is reachable,
// so the session has no producers and no drain task: exclusive engine
// access is free, and bypassing the bounded queue means scheduler workers
// never block on ingest backpressure. When the log carries a checkpoint,
// the engine restores it first and only the uncovered suffix of batches
// is consumed — the checkpoint state is a deterministic function of the
// covered prefix, so the rebuilt state is still byte-identical to an
// offline replay of the full journaled prefix. Replayed reads flow
// through the ingest/consume counters like live traffic; ReadsRecovered
// (bumped by the caller) reports how much of that came from the logs.
//
// replay owns rec: it drops the checkpoint blob once the engine holds the
// state and each batch once the engine consumed it, so the collector may
// reclaim that input while the rest of the suffix replays.
//
// Unless the tag lifecycle is on, replay publishes no periodic snapshot:
// a finished session takes only its final one, and a live session comes
// up with none, detecting on its first refresh or cadence publish.
func (s *Session) replay(rec *wal.Recovered, log *wal.Log) {
	failed := false
	if rec.Unreplayable != nil {
		// A log this build cannot replay (a batch in a retired record
		// format): the session dies holding the error, and Recover left
		// the log on disk as it was.
		s.setErr(fmt.Errorf("serve: recover log: %w", rec.Unreplayable))
		failed = true
	}
	if rec.Checkpoint != nil {
		err := s.eng.Restore(rec.Checkpoint)
		rec.Checkpoint = nil
		if err != nil {
			// A checkpoint that no longer restores (config drift since it
			// was written): the session dies holding the error, exactly
			// like a journaled batch the engine rejects. Replaying the
			// suffix against an empty engine would silently produce a
			// different order — refusing is the honest outcome.
			s.setErr(fmt.Errorf("serve: restore checkpoint: %w", err))
			failed = true
		} else {
			n := rec.CheckpointReads
			s.enqueued.Add(n)
			s.consumed.Add(n)
			s.srv.metrics.readsIngested.Add(n)
			s.srv.metrics.readsConsumed.Add(n)
		}
	}
	for k, batch := range rec.Batches {
		if failed {
			break
		}
		rec.Batches[k] = nil
		n := int64(len(batch))
		s.enqueued.Add(n)
		s.srv.metrics.readsIngested.Add(n)
		if !s.consume(batch) {
			failed = true
			break
		}
		if s.srv.opts.FinalizeAfter > 0 {
			// With the tag lifecycle on, a snapshot is not just a view: its
			// sweep emits and evicts tags, so the boot keeps the live
			// cadence to leave emission and eviction where they were.
			s.maybePublish(len(batch))
		} else {
			// Without it, a snapshot is only a view, and none taken before
			// the listener exists reaches a client: the first refresh,
			// cadence publish or final snapshot replaces it, with the same
			// bytes at the same reads (snapshots do not depend on the
			// path). So detection waits for that one. The count carries
			// on, so the first post-boot batch publishes if the replay
			// owed a publish.
			s.sincePublish += len(batch)
		}
	}
	switch {
	case rec.Finished:
		// The log ends with a finish marker: rebuild the final snapshot
		// and retire, exactly as Finish would have. An error (e.g. a
		// session finished before any reads) parks in Err as it did in the
		// process that wrote the log.
		if !failed {
			if _, err := s.takeSnapshot(true); err != nil {
				s.setErr(err)
			}
		}
		s.terminate()
	case failed:
		// A journaled batch the engine rejects (config drift): the session
		// dies holding the error, like a live consumer failure. Keep the
		// repaired log on disk for inspection.
		if log != nil {
			s.attachWAL(log)
		}
		s.terminate()
		s.closeWAL()
	default:
		// Live session: journal future batches onto the repaired log and
		// wait for producers, idle.
		if log != nil {
			s.attachWAL(log)
		}
	}
}

// maybePublish is the periodic-publish hook, run by the engine owner
// (drain, and boot replay with the lifecycle on) after each consumed
// batch of n reads: it publishes a snapshot every PublishEvery reads.
func (s *Session) maybePublish(n int) {
	pe := s.srv.opts.PublishEvery
	if pe <= 0 {
		return
	}
	if s.sincePublish += n; s.sincePublish < pe {
		return
	}
	s.sincePublish = 0
	// Periodic publish; failures here just mean "no tags yet".
	_, _ = s.takeSnapshot(false)
}

// takeSnapshot runs the engine snapshot and publishes the result. Only
// the engine owner calls it: the drain task, or boot replay before the
// session is reachable.
func (s *Session) takeSnapshot(final bool) (*Snapshot, error) {
	t0 := time.Now()
	res, err := s.eng.Snapshot()
	if err != nil {
		if s.consumed.Load() == 0 {
			return nil, noReadsError{err}
		}
		return nil, err
	}
	snap := &Snapshot{
		Result:  res,
		Reads:   s.consumed.Load(),
		Final:   final,
		At:      time.Now(),
		Latency: time.Since(t0),
	}
	if final {
		// The final snapshot outlives the engine; drop each tag's raw
		// profile (by far the heaviest state — every read's time/phase/
		// RSSI) so a finished session retains only keys and orders.
		snap.Result = stripProfiles(res)
	}
	// A snapshot is where the lifecycle moves (emission and eviction run
	// in the engine's sweep): refresh the resident gauge, forward the
	// finalization/late-read deltas to the server-wide counters, and
	// publish the per-session lifecycle sample as one coherent view.
	s.activeTags.Store(int64(s.eng.Tags()))
	lv := &lifecycleView{
		finalized: int64(s.eng.Finalized()),
		discarded: s.eng.Discarded(),
		lateReads: s.eng.LateReads(),
	}
	if lv.finalized != s.prevFinalized {
		s.srv.metrics.tagsFinalized.Add(lv.finalized - s.prevFinalized)
		s.prevFinalized = lv.finalized
	}
	if lv.discarded != s.prevDiscarded {
		s.srv.metrics.tagsDiscarded.Add(lv.discarded - s.prevDiscarded)
		s.prevDiscarded = lv.discarded
	}
	if lv.lateReads != s.prevLate {
		s.srv.metrics.lateReadsDropped.Add(lv.lateReads - s.prevLate)
		s.prevLate = lv.lateReads
	}
	s.life.Store(lv)
	s.latest.Store(snap)
	s.srv.metrics.snapshots.Add(1)
	s.srv.metrics.snapshotNanos.Add(int64(snap.Latency))
	s.srv.metrics.snapshotLatency.Observe(snap.Latency.Seconds())
	return snap, nil
}

// stripProfiles returns a copy of a global result with every per-tag raw
// profile dropped (by far the heaviest state — every read's time/phase/
// RSSI), keeping keys, orders and the emission stream queryable. It copies
// the shard slice and each shard's Tags slice: a quiet shard's Result
// pointer is aliased by earlier published snapshots, which concurrent
// queriers may still be reading.
func stripProfiles(res *deploy.GlobalResult) *deploy.GlobalResult {
	cp := *res
	cp.Shards = append([]deploy.ShardResult(nil), res.Shards...)
	for i, sh := range cp.Shards {
		if sh.Result == nil {
			continue
		}
		r := *sh.Result
		r.Tags = make([]stpp.TagResult, len(sh.Result.Tags))
		copy(r.Tags, sh.Result.Tags)
		for j := range r.Tags {
			r.Tags[j].Profile = nil
		}
		cp.Shards[i].Result = &r
	}
	return &cp
}

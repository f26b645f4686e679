// Package serve is the concurrent trace-ingest layer: a long-running
// daemon core that multiplexes many live read streams into per-session
// deploy.ShardedEngines.
//
// Each session is one deployment's read stream (described by a
// trace.Header, the same metadata a recorded trace carries). Producers
// POST NDJSON read lines — the exact JSONL wire format internal/trace
// archives — which are decoded, validated against the session's reader
// set, and pushed into a bounded per-session queue. Each session's
// consumer is a drain task on the process-global scheduler
// (internal/sched), scheduled only while the session has queued work: at
// most one drain owns the sharded engine at a time (Consume and Snapshot
// are single-goroutine APIs; the engine parallelizes internally on the
// same scheduler), absorbing batches and publishing periodic snapshots —
// the latest stitched global X/Y order plus per-zone results — for a
// non-blocking query endpoint. Idle sessions hold no goroutine and no
// worker; a firehose session yields its worker every few dozen batches
// and the scheduler's per-group fairness accounting decides who runs
// next.
//
// Backpressure is the bounded queue: when a session's consumer falls
// behind, producer POSTs block in Enqueue until the queue drains, so
// memory stays bounded at QueueBatches × MaxBatch reads per session no
// matter how fast clients push. Every stall is counted.
//
// The final order of a session fed a recorded trace is byte-identical to
// the offline replay (cmd/stpp) of the same trace: both run the same
// deploy.FromHeader configuration derivation and the same engines, and
// the streaming engines are equivalence-tested against the batch
// localizer. cmd/loadgen asserts exactly this end to end.
//
// With Options.DataDir set, sessions are durable: every session journals
// its header and each accepted batch to a per-session write-ahead log
// (internal/wal) BEFORE the batch becomes visible to the consumer, and
// New replays all logs found under DataDir on boot — finished sessions
// are rebuilt through a full replay to their final snapshot, live ones
// resume accepting reads exactly where the journal ends. Unless the tag
// lifecycle is on, a boot publishes no periodic snapshot: a recovered
// live session has none until its first cadence publish or refresh, so
// its detection work runs when a client or the cadence asks. A crash at
// any byte of the log recovers to a final order byte-identical to the
// offline replay of the journaled prefix; the crash-injection tests
// enforce this at every record boundary and mid-record.
package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	prom "repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// stppd's defaults. Options.fill falls back to the queue shape, and
// stppd's flags default to all four; the cadences stay opt-in here, where
// 0 turns each one off.
const (
	DefaultQueueBatches    = 64
	DefaultMaxBatch        = 256
	DefaultPublishEvery    = 2000
	DefaultCheckpointEvery = 100000
)

// Options tunes a Server.
type Options struct {
	// Config is the base STPP configuration (carrier wavelength, window,
	// …). Per-session trace headers override the reference geometry via
	// deploy.FromHeader, exactly like an offline cmd/stpp replay.
	Config stpp.Config
	// QueueBatches bounds each session's ingest queue, in batches; an
	// enqueue into a full queue blocks (backpressure). Default
	// DefaultQueueBatches.
	QueueBatches int
	// MaxBatch caps the reads per queued batch; the ingest path chunks
	// longer NDJSON bodies. Bounded queue memory per session is
	// QueueBatches × MaxBatch reads. Default DefaultMaxBatch.
	MaxBatch int
	// PublishEvery takes and publishes a snapshot every N consumed reads.
	// 0 (the zero value) disables periodic publishing: snapshots then
	// happen only on explicit refresh and at finish. stppd's -publish
	// flag defaults to DefaultPublishEvery. Reads replayed at boot count
	// toward the cadence, but only a boot with FinalizeAfter set
	// publishes on it.
	PublishEvery int
	// Scheduler runs the session consumers, the engines' parallel stages
	// and boot recovery. Nil uses the process-global sched.Default().
	// Tests inject private schedulers to control worker counts.
	Scheduler *sched.Scheduler
	// RetainFinished bounds how many finished sessions stay queryable:
	// creating a session beyond the bound evicts the oldest finished ones
	// (active sessions are never evicted). Finished sessions already drop
	// their engine and per-tag profiles; this bounds the residue under
	// session churn. Default 256.
	RetainFinished int
	// DataDir enables durable sessions: each session journals to a
	// write-ahead log under DataDir/<session-id>/ and New replays every
	// log found there, rebuilding the sessions a crash or redeploy
	// interrupted. Empty (the default) keeps sessions purely in memory.
	// Dropped and evicted sessions delete their logs, so DataDir stays
	// bounded by RetainFinished plus the live sessions.
	DataDir string
	// Fsync is the WAL append durability policy (wal.SyncAlways fsyncs
	// every batch; wal.SyncNever leaves batches to the page cache —
	// durable across process crashes, not power loss). Zero value:
	// SyncAlways.
	Fsync wal.Policy
	// SegmentBytes rotates WAL segment files at this size; 0 =
	// wal.DefaultSegmentBytes (64 MiB).
	SegmentBytes int64
	// CheckpointEvery writes a WAL checkpoint record — the serialized
	// engine state — every N consumed reads per session, letting recovery
	// restore the state and replay only the journaled suffix, and letting
	// the log truncate segments the checkpoint covers. 0 (the zero value)
	// disables checkpointing: recovery replays the full history. stppd's
	// -checkpoint-every flag defaults to DefaultCheckpointEvery.
	CheckpointEvery int
	// FinalizeAfter enables the tag lifecycle on every session: a tag
	// whose pass has been quiet for this many seconds (stream time) behind
	// the session's frontier is finalized — emitted to the session's
	// ordered emission stream at its frozen global position and evicted
	// from the engine, so an endless stream runs in bounded memory. 0 (the
	// default) disables the lifecycle. Must exceed the longest mid-pass
	// read gap of the deployment (see stpp.FinalizePolicy).
	FinalizeAfter float64
	// FinalizeMargin is the extra quiet margin behind a tag's V-zone
	// center required before finalizing (stpp.FinalizePolicy.Margin).
	// Only meaningful with FinalizeAfter > 0.
	FinalizeMargin float64
	// MaxActiveTags bounds each session's resident (not yet finalized)
	// tag profiles: an enqueue that would grow a session already at the
	// bound fails fast with ErrTooManyTags instead of letting memory grow
	// unbounded. 0 (the default) means no bound. The check samples the
	// gauge the consumer maintains, so a burst already in the queue may
	// overshoot by the queue depth — it is an admission valve, not an
	// exact cap.
	MaxActiveTags int
}

func (o *Options) fill() {
	if o.QueueBatches <= 0 {
		o.QueueBatches = DefaultQueueBatches
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.PublishEvery < 0 {
		o.PublishEvery = 0
	}
	if o.RetainFinished <= 0 {
		o.RetainFinished = 256
	}
}

// counters is the server-wide counter set: monotonically increasing
// atomics the writers bump and Stats samples. What each one counts is
// documented once, on the Stats field it feeds; recovered sessions also
// count as created, and their replayed reads as ingested and consumed.
type counters struct {
	start time.Time

	sessionsCreated, sessionsFinished, sessionsRecovered atomic.Int64
	readsIngested, readsConsumed, readsRecovered         atomic.Int64
	stalls, stallNanos                                   atomic.Int64
	snapshots, snapshotNanos                             atomic.Int64
	snapshotLatency                                      *prom.Histogram

	walTornTails, walSkipped, walAppends, walErrors atomic.Int64
	checkpointsWritten, segmentsTruncated           atomic.Int64
	suffixReadsReplayed                             atomic.Int64
	recoveryNanos, recoveryWALBytes                 atomic.Int64
	recoverySupersededBytes                         atomic.Int64

	tagsFinalized, tagsDiscarded, lateReadsDropped, limitRejects atomic.Int64
}

// Stats is one sample of the server counters and the single declaration
// of every unlabeled stppd metric: GET /v1/stats encodes it as JSON, and
// PromMetrics renders each field with a prom tag as one /metrics family —
// the tag gives the family name and type (counter or gauge), the help tag
// its HELP text. Families follow field order, except that
// "after=Field" places a family right after Field's. Fields tagged
// json:"-" are on /metrics only.
type Stats struct {
	UptimeSeconds    float64 `json:"uptime_seconds" prom:"stppd_uptime_seconds,gauge" help:"Seconds since the server started."`
	SessionsActive   int     `json:"sessions_active" prom:"stppd_sessions_active,gauge" help:"Sessions currently accepting or draining reads."`
	SessionsCreated  int64   `json:"sessions_created" prom:"stppd_sessions_created_total,counter" help:"Sessions created (including recovered)."`
	SessionsFinished int64   `json:"sessions_finished" prom:"stppd_sessions_finished_total,counter" help:"Sessions finished, aborted or dropped."`
	ReadsIngested    int64   `json:"reads_ingested" prom:"stppd_reads_ingested_total,counter" help:"Reads accepted into session queues."`
	ReadsConsumed    int64   `json:"reads_consumed" prom:"stppd_reads_consumed_total,counter" help:"Reads consumed by session engines."`
	ReadsPerSecond   float64 `json:"reads_per_second" prom:"stppd_reads_per_second,gauge" help:"Consumed-read throughput over the process uptime."`
	QueueDepthReads  int64   `json:"queue_depth_reads"`
	Stalls           int64   `json:"stalls" prom:"stppd_ingest_stalls_total,counter" help:"Enqueues that found a session queue full and blocked."`
	StallSeconds     float64 `json:"stall_seconds" prom:"stppd_ingest_stall_seconds_total,counter" help:"Producer time spent blocked on full session queues."`
	Snapshots        int64   `json:"snapshots" prom:"stppd_snapshots_total,counter" help:"Snapshots taken (periodic, refresh and final)."`
	AvgSnapshotMs    float64 `json:"avg_snapshot_ms"`

	// Durability: WALEnabled mirrors Options.DataDir; the counters are
	// this process's recovery and journaling activity.
	WALEnabled        bool  `json:"wal_enabled"`
	SessionsRecovered int64 `json:"sessions_recovered" prom:"stppd_sessions_recovered_total,counter,after=SessionsFinished" help:"Sessions rebuilt from write-ahead logs at boot."`
	ReadsRecovered    int64 `json:"reads_recovered" prom:"stppd_reads_recovered_total,counter,after=ReadsConsumed" help:"Reads recovered from logs at boot (checkpointed + replayed)."`
	WALTornTails      int64 `json:"wal_torn_tails" prom:"stppd_wal_torn_tails_total,counter,after=SegmentsTruncated" help:"Boot recoveries that truncated a torn log tail."`
	WALSkipped        int64 `json:"wal_skipped" prom:"stppd_wal_skipped_total,counter,after=WALTornTails" help:"Log directories too damaged to rebuild (left on disk)."`
	WALAppends        int64 `json:"wal_appends" prom:"stppd_wal_appends_total,counter" help:"Journal appends (batches, finish markers, checkpoints)."`
	WALErrors         int64 `json:"wal_errors" prom:"stppd_wal_errors_total,counter" help:"Failed journal appends and syncs."`
	WALBytes          int64 `json:"-" prom:"stppd_wal_bytes_total,counter" help:"Record bytes appended to write-ahead logs, process-wide."`
	WALFsyncs         int64 `json:"-" prom:"stppd_wal_fsyncs_total,counter" help:"File fsyncs issued by write-ahead logs, process-wide."`

	// Checkpointed recovery: records written, segments reclaimed, and how
	// many of ReadsRecovered were replayed batch-by-batch at boot (the
	// rest were restored from checkpoints in O(state)).
	CheckpointsWritten  int64 `json:"wal_checkpoints" prom:"stppd_wal_checkpoints_total,counter" help:"Engine checkpoint records journaled."`
	SegmentsTruncated   int64 `json:"wal_segments_truncated" prom:"stppd_wal_segments_truncated_total,counter" help:"WAL segments deleted behind checkpoints."`
	SuffixReadsReplayed int64 `json:"wal_suffix_reads_replayed"`

	// Boot recovery: wall time of the sweep, the log bytes it scanned and
	// the batch-record bytes among them it left undecoded because a
	// checkpoint covers them.
	RecoverySeconds         float64 `json:"recovery_seconds" prom:"stppd_recovery_seconds,gauge" help:"Wall time of the boot recovery sweep."`
	RecoveryWALBytes        int64   `json:"recovery_wal_bytes" prom:"stppd_recovery_wal_bytes,gauge" help:"Valid write-ahead log bytes the boot recovery scanned."`
	RecoverySupersededBytes int64   `json:"recovery_superseded_bytes" prom:"stppd_recovery_superseded_bytes,gauge" help:"Batch-record bytes the boot recovery CRC-checked but did not decode because a checkpoint covers them."`

	// Lifecycle: cumulative finalizations and late-read drops across all
	// sessions (including finished ones), the current resident-profile
	// gauge across live sessions, and MaxActiveTags rejections.
	TagsFinalized    int64 `json:"tags_finalized" prom:"stppd_tags_finalized_total,counter" help:"Tags emitted at a frozen global position and evicted."`
	TagsDiscarded    int64 `json:"tags_discarded" prom:"stppd_tags_discarded_total,counter" help:"Lapsed-but-undetectable tags evicted without emission."`
	LateReadsDropped int64 `json:"late_reads_dropped" prom:"stppd_late_reads_total,counter" help:"Reads dropped because their tag was already finalized."`
	ActiveTags       int64 `json:"active_tags" prom:"stppd_tags_active,gauge,after=RecoverySupersededBytes" help:"Resident (reader, tag) profiles across live sessions."`
	LimitRejects     int64 `json:"limit_rejects" prom:"stppd_limit_rejects_total,counter" help:"Enqueues rejected by the max-active-tags admission valve."`

	// Occupancy of the scheduler the server runs on.
	SchedWorkers int `json:"-" prom:"stppd_sched_workers,gauge" help:"Scheduler pool width."`
	SchedIdle    int `json:"-" prom:"stppd_sched_idle_workers,gauge" help:"Scheduler workers currently parked."`
	SchedQueued  int `json:"-" prom:"stppd_sched_queued_tasks,gauge" help:"Tasks waiting in scheduler run queues."`
}

// Server multiplexes concurrent ingest sessions. It is safe for
// concurrent use by any number of producers and queriers.
type Server struct {
	opts    Options
	sched   *sched.Scheduler
	metrics counters

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // session IDs in creation order, for eviction
	nextID   int64
}

// New builds a Server. The base configuration must validate. When
// Options.DataDir is set, New also replays every write-ahead log found
// there before returning: the server comes up already holding the
// sessions a crash interrupted, finished ones at their final snapshot
// and live ones ready for more reads.
func New(opts Options) (*Server, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	pol := stpp.FinalizePolicy{After: opts.FinalizeAfter, Margin: opts.FinalizeMargin}
	if err := pol.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if opts.MaxActiveTags < 0 {
		return nil, fmt.Errorf("serve: max active tags %d < 0", opts.MaxActiveTags)
	}
	opts.fill()
	sc := opts.Scheduler
	if sc == nil {
		sc = sched.Default()
	}
	s := &Server{
		opts:     opts,
		sched:    sc,
		sessions: make(map[string]*Session),
		metrics: counters{
			start:           time.Now(),
			snapshotLatency: prom.NewHistogram(prom.DefaultLatencyBounds()...),
		},
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: data dir: %w", err)
		}
		if err := s.recoverAll(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) walOpts() wal.Options {
	return wal.Options{
		Fsync:        s.opts.Fsync,
		SegmentBytes: s.opts.SegmentBytes,
	}
}

// recoverAll sweeps DataDir and rebuilds one session per recoverable WAL.
// Each log replays through a fresh engine via the same Consume/Snapshot
// sequence live ingest runs, so the recovered state is byte-identical to
// an offline replay of the journaled prefix. Unrecoverable directories
// (no intact header record) are counted and left on disk for inspection,
// never deleted.
//
// Every session directory reserves its number first, in name order. Then
// each session streams through its own scheduler task — scan and repair
// the log, build the engine, restore the checkpoint, replay the suffix —
// and the task drops the recovered log input as soon as the engine holds
// it, so a boot keeps at most one session's input per participant live,
// not every session's at once. The sessions register in name order after
// the fan-out returns, so IDs, eviction order and counters do not depend
// on which worker ran which session. Each session's snapshots fan out
// again across its shards and tags on the same pool. Replay feeds batches
// straight into the engine rather than through Enqueue: no producer exists
// yet, and a scheduler task must never block on a bounded queue whose
// drain needs a worker.
func (s *Server) recoverAll() error {
	start := time.Now()
	names, err := wal.Sessions(s.opts.DataDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, name := range names {
		// Damaged directories stay on disk unrecovered, so they reserve
		// their numbers too: fresh sessions never collide with a directory
		// already there. (New runs before any producer can reach the
		// server, so nextID needs no lock here.)
		var n int64
		if _, err := fmt.Sscanf(name, "s%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	recovered := make([]*Session, len(names))
	s.sched.For(nil, len(names), func(i int) {
		recovered[i] = s.recoverSession(names[i])
	})
	for i, sess := range recovered {
		if sess != nil {
			s.sessions[names[i]] = sess
			s.order = append(s.order, names[i])
		}
	}
	s.metrics.recoveryNanos.Store(int64(time.Since(start)))
	return nil
}

// recoverSession rebuilds the session logged under DataDir/name, or
// returns nil when the log cannot be rebuilt.
func (s *Server) recoverSession(name string) *Session {
	dir := filepath.Join(s.opts.DataDir, name)
	rec, log, err := wal.Recover(dir, s.walOpts())
	if err != nil {
		s.metrics.walSkipped.Add(1)
		return nil
	}
	if recoveredHook != nil {
		recoveredHook(rec)
	}
	s.metrics.recoveryWALBytes.Add(rec.Bytes)
	s.metrics.recoverySupersededBytes.Add(rec.SupersededBytes)
	if rec.Torn {
		s.metrics.walTornTails.Add(1)
	}
	sess, err := newSession(name, s, rec.Header)
	if err != nil {
		// A header that no longer builds an engine (config drift since
		// the log was written): skip, keep the log.
		if log != nil {
			log.Close()
		}
		s.metrics.walSkipped.Add(1)
		return nil
	}
	sess.walDir = dir
	// A recovered session counts as created (so SessionsCreated ≥
	// SessionsFinished always holds); its replayed reads flow through the
	// ingest counters again — ReadsRecovered reports how much of that
	// traffic came from the logs.
	s.metrics.sessionsCreated.Add(1)
	s.metrics.sessionsRecovered.Add(1)
	s.metrics.readsRecovered.Add(rec.CheckpointReads + int64(rec.Reads))
	s.metrics.suffixReadsReplayed.Add(int64(rec.Reads))
	sess.replay(rec, log)
	return sess
}

// recoveredHook, when set, sees each log recovery yields before its
// session replays it, from concurrent recovery tasks; tests use it to
// watch the input's lifetime.
var recoveredHook func(*wal.Recovered)

// CreateSession opens a new ingest session for the deployment a trace
// header describes. The session holds no goroutine: a drain task is
// scheduled on the shared pool whenever a batch, a refresh or the finish
// gives it work.
func (s *Server) CreateSession(h trace.Header) (*Session, error) {
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("s%06d", s.nextID)
	s.mu.Unlock()

	sess, err := newSession(id, s, h)
	if err != nil {
		return nil, err
	}
	if s.opts.DataDir != "" {
		// The header record is journaled (and fsynced) before the session
		// is visible: a session that handed out its ID survives a crash.
		dir := filepath.Join(s.opts.DataDir, id)
		log, err := wal.Create(dir, h, s.walOpts())
		if err != nil {
			return nil, fmt.Errorf("serve: wal: %w", err)
		}
		sess.walDir = dir
		sess.attachWAL(log)
	}
	// Created counts before the session is reachable: once it is in the
	// registry another goroutine can finish or drop it, and the finished
	// counter must never lead the created one.
	s.metrics.sessionsCreated.Add(1)
	s.mu.Lock()
	s.sessions[id] = sess
	s.order = append(s.order, id)
	victims := s.evictLocked()
	s.mu.Unlock()
	for _, v := range victims {
		v.discardWAL()
	}
	return sess, nil
}

// evictLocked drops the oldest finished sessions while more than
// RetainFinished of them linger, so a long-running daemon's registry
// stays bounded under session churn. Callers hold s.mu and must call
// discardWAL on the returned victims after unlocking — an evicted
// session's journal is deleted with it, so DataDir stays bounded too.
func (s *Server) evictLocked() []*Session {
	finished := 0
	for _, sess := range s.sessions {
		if sess.finished() {
			finished++
		}
	}
	var victims []*Session
	kept := s.order[:0]
	for _, id := range s.order {
		sess, ok := s.sessions[id]
		if !ok {
			continue // dropped explicitly
		}
		if finished > s.opts.RetainFinished && sess.finished() {
			delete(s.sessions, id)
			victims = append(victims, sess)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return victims
}

// Session looks up a live session.
func (s *Server) Session(id string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// DropSession aborts a session (unblocking any stalled producers),
// removes it from the registry and deletes its journal — an explicitly
// dropped session must not resurrect at the next boot. Dropping an
// unknown ID is a no-op.
func (s *Server) DropSession(id string) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		sess.abort()
		sess.discardWAL()
	}
}

// Stats samples the server counters, the live queue depths, the
// process-wide WAL totals and the scheduler.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := 0
	var depth, resident int64
	for _, sess := range s.sessions {
		if !sess.finished() {
			active++
			resident += sess.activeTags.Load()
		}
		depth += sess.queued.Load()
	}
	s.mu.Unlock()

	// Causally-paired counters sample effect before cause (finished
	// before created, consumed before ingested): the writers maintain
	// cause ≥ effect at every instant, so sampling in this order keeps
	// the pair consistent in the snapshot too — a concurrent sample never
	// shows more finished sessions than created ones or more consumed
	// reads than ingested ones.
	finished := s.metrics.sessionsFinished.Load()
	created := s.metrics.sessionsCreated.Load()
	consumed := s.metrics.readsConsumed.Load()
	ingested := s.metrics.readsIngested.Load()
	sc := s.sched.Stats()
	st := Stats{
		UptimeSeconds:    time.Since(s.metrics.start).Seconds(),
		SessionsActive:   active,
		SessionsCreated:  created,
		SessionsFinished: finished,
		ReadsIngested:    ingested,
		ReadsConsumed:    consumed,
		QueueDepthReads:  depth,
		Stalls:           s.metrics.stalls.Load(),
		StallSeconds:     float64(s.metrics.stallNanos.Load()) / 1e9,
		Snapshots:        s.metrics.snapshots.Load(),

		WALEnabled:        s.opts.DataDir != "",
		SessionsRecovered: s.metrics.sessionsRecovered.Load(),
		ReadsRecovered:    s.metrics.readsRecovered.Load(),
		WALTornTails:      s.metrics.walTornTails.Load(),
		WALSkipped:        s.metrics.walSkipped.Load(),
		WALAppends:        s.metrics.walAppends.Load(),
		WALErrors:         s.metrics.walErrors.Load(),
		WALBytes:          wal.TotalBytes(),
		WALFsyncs:         wal.TotalFsyncs(),

		CheckpointsWritten:      s.metrics.checkpointsWritten.Load(),
		SegmentsTruncated:       s.metrics.segmentsTruncated.Load(),
		SuffixReadsReplayed:     s.metrics.suffixReadsReplayed.Load(),
		RecoverySeconds:         float64(s.metrics.recoveryNanos.Load()) / 1e9,
		RecoveryWALBytes:        s.metrics.recoveryWALBytes.Load(),
		RecoverySupersededBytes: s.metrics.recoverySupersededBytes.Load(),

		TagsFinalized:    s.metrics.tagsFinalized.Load(),
		TagsDiscarded:    s.metrics.tagsDiscarded.Load(),
		LateReadsDropped: s.metrics.lateReadsDropped.Load(),
		ActiveTags:       resident,
		LimitRejects:     s.metrics.limitRejects.Load(),

		SchedWorkers: sc.Workers,
		SchedIdle:    sc.Idle,
		SchedQueued:  sc.Queued,
	}
	if st.UptimeSeconds > 0 {
		st.ReadsPerSecond = float64(st.ReadsConsumed) / st.UptimeSeconds
	}
	if st.Snapshots > 0 {
		st.AvgSnapshotMs = float64(s.metrics.snapshotNanos.Load()) / float64(st.Snapshots) / 1e6
	}
	return st
}

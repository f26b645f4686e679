package serve

import (
	"net/http"
	"sort"

	prom "repro/internal/metrics"
	"repro/internal/wal"
)

// This file is stppd's Prometheus exposition layer: PromMetrics renders
// every server, session, scheduler and WAL counter into the text format
// (version 0.0.4) using the dependency-free writer in internal/metrics,
// and handleMetrics serves it as GET /metrics. The family catalog below
// is pinned by a golden-file test (names, types and label sets — not
// values), so renames and type changes are deliberate acts, and a
// promtool-style lint test keeps the output parseable by a real scraper.

// sessionSample is one session's per-label gauge row, collected under
// the registry lock and rendered after it is released.
type sessionSample struct {
	id           string
	queued       int64
	stallSeconds float64
}

// PromMetrics renders the server's Prometheus exposition body. Counters
// come from the same atomics /v1/stats samples (with the same
// effect-before-cause discipline via Stats); per-session queue gauges
// carry a session label; process-wide WAL byte/fsync totals come from
// the wal package's counters; scheduler occupancy from the scheduler the
// server runs on.
func (s *Server) PromMetrics() ([]byte, error) {
	st := s.Stats()

	s.mu.Lock()
	perSess := make([]sessionSample, 0, len(s.sessions))
	for id, sess := range s.sessions {
		perSess = append(perSess, sessionSample{
			id:           id,
			queued:       sess.Queued(),
			stallSeconds: sess.StallSeconds(),
		})
	}
	s.mu.Unlock()
	sort.Slice(perSess, func(i, j int) bool { return perSess[i].id < perSess[j].id })

	w := &prom.PromWriter{}

	w.Gauge("stppd_uptime_seconds", "Seconds since the server started.")
	w.Value(st.UptimeSeconds)

	w.Gauge("stppd_sessions_active", "Sessions currently accepting or draining reads.")
	w.Value(float64(st.SessionsActive))
	w.Counter("stppd_sessions_created_total", "Sessions created (including recovered).")
	w.Value(float64(st.SessionsCreated))
	w.Counter("stppd_sessions_finished_total", "Sessions finished, aborted or dropped.")
	w.Value(float64(st.SessionsFinished))
	w.Counter("stppd_sessions_recovered_total", "Sessions rebuilt from write-ahead logs at boot.")
	w.Value(float64(st.SessionsRecovered))

	w.Counter("stppd_reads_ingested_total", "Reads accepted into session queues.")
	w.Value(float64(st.ReadsIngested))
	w.Counter("stppd_reads_consumed_total", "Reads consumed by session engines.")
	w.Value(float64(st.ReadsConsumed))
	w.Counter("stppd_reads_recovered_total", "Reads recovered from logs at boot (checkpointed + replayed).")
	w.Value(float64(st.ReadsRecovered))
	w.Gauge("stppd_reads_per_second", "Consumed-read throughput over the process uptime.")
	w.Value(st.ReadsPerSecond)

	w.Counter("stppd_ingest_stalls_total", "Enqueues that found a session queue full and blocked.")
	w.Value(float64(st.Stalls))
	w.Counter("stppd_ingest_stall_seconds_total", "Producer time spent blocked on full session queues.")
	w.Value(st.StallSeconds)

	w.Gauge("stppd_session_queue_depth_reads", "Reads waiting in each session's ingest queue.")
	for _, ss := range perSess {
		w.ValueL(float64(ss.queued), "session", ss.id)
	}
	w.Gauge("stppd_session_stall_seconds", "Producer time spent blocked on each session's full queue.")
	for _, ss := range perSess {
		w.ValueL(ss.stallSeconds, "session", ss.id)
	}

	w.Counter("stppd_snapshots_total", "Snapshots taken (periodic, refresh and final).")
	w.Value(float64(st.Snapshots))
	w.Histogram("stppd_snapshot_latency_seconds",
		"Engine snapshot latency (localize + stitch + publish).", s.metrics.SnapshotLatency)

	w.Counter("stppd_wal_appends_total", "Journal appends (batches, finish markers, checkpoints).")
	w.Value(float64(st.WALAppends))
	w.Counter("stppd_wal_errors_total", "Failed journal appends and syncs.")
	w.Value(float64(st.WALErrors))
	w.Counter("stppd_wal_bytes_total", "Record bytes appended to write-ahead logs, process-wide.")
	w.Value(float64(wal.TotalBytes()))
	w.Counter("stppd_wal_fsyncs_total", "File fsyncs issued by write-ahead logs, process-wide.")
	w.Value(float64(wal.TotalFsyncs()))
	w.Counter("stppd_wal_checkpoints_total", "Engine checkpoint records journaled.")
	w.Value(float64(st.CheckpointsWritten))
	w.Counter("stppd_wal_segments_truncated_total", "WAL segments deleted behind checkpoints.")
	w.Value(float64(st.SegmentsTruncated))
	w.Counter("stppd_wal_torn_tails_total", "Boot recoveries that truncated a torn log tail.")
	w.Value(float64(st.WALTornTails))
	w.Counter("stppd_wal_skipped_total", "Log directories too damaged to rebuild (left on disk).")
	w.Value(float64(st.WALSkipped))
	w.Gauge("stppd_recovery_seconds", "Wall time of the boot recovery sweep.")
	w.Value(st.RecoverySeconds)
	w.Gauge("stppd_recovery_wal_bytes", "Valid write-ahead log bytes the boot recovery scanned.")
	w.Value(float64(st.RecoveryWALBytes))

	w.Gauge("stppd_tags_active", "Resident (reader, tag) profiles across live sessions.")
	w.Value(float64(st.ActiveTags))
	w.Counter("stppd_tags_finalized_total", "Tags emitted at a frozen global position and evicted.")
	w.Value(float64(st.TagsFinalized))
	w.Counter("stppd_tags_discarded_total", "Lapsed-but-undetectable tags evicted without emission.")
	w.Value(float64(st.TagsDiscarded))
	w.Counter("stppd_late_reads_total", "Reads dropped because their tag was already finalized.")
	w.Value(float64(st.LateReadsDropped))
	w.Counter("stppd_limit_rejects_total", "Enqueues rejected by the max-active-tags admission valve.")
	w.Value(float64(st.LimitRejects))

	ss := s.sched.Stats()
	w.Gauge("stppd_sched_workers", "Scheduler pool width.")
	w.Value(float64(ss.Workers))
	w.Gauge("stppd_sched_idle_workers", "Scheduler workers currently parked.")
	w.Value(float64(ss.Idle))
	w.Gauge("stppd_sched_queued_tasks", "Tasks waiting in scheduler run queues.")
	w.Value(float64(ss.Queued))
	w.Counter("stppd_sched_steals_total", "Tasks taken from another worker's queue.")
	w.Value(float64(ss.Steals))

	return w.Bytes()
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, err := s.PromMetrics()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(body)
}

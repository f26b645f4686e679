package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/trace"
	"repro/internal/wal"
)

// CreateResponse answers POST /v1/sessions.
type CreateResponse struct {
	ID string `json:"id"`
}

// IngestResponse answers POST /v1/sessions/{id}/reads.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// ShardOrder is one zone's slice of an OrderResponse.
type ShardOrder struct {
	ReaderID int      `json:"reader_id"`
	Tags     int      `json:"tags"`
	XOrder   []string `json:"x_order"`
	YOrder   []string `json:"y_order"`
}

// OrderResponse is a published snapshot on the wire: the stitched global
// orders as hex EPC strings (trace.EncodeEPCs format), per-zone orders,
// and snapshot provenance.
type OrderResponse struct {
	SessionID string   `json:"session_id"`
	Final     bool     `json:"final"`
	Reads     int64    `json:"reads"`
	Tags      int      `json:"tags"`
	XOrder    []string `json:"x_order"`
	YOrder    []string `json:"y_order"`
	// XConfidence scores each adjacent pair of XOrder (length
	// len(x_order)-1): the pair's bottom-time separation weighed against
	// both tags' fitted bottom-time uncertainties, in [0, 1] — 1 means
	// the gap dwarfs the noise, 0 means the pair could be in either
	// order (or a tag has no usable key yet).
	XConfidence []float64    `json:"x_confidence,omitempty"`
	Shards      []ShardOrder `json:"shards,omitempty"`
	SnapshotMs  float64      `json:"snapshot_ms"`
}

// SessionStats answers GET /v1/sessions/{id}.
type SessionStats struct {
	SessionID    string  `json:"session_id"`
	Enqueued     int64   `json:"enqueued"`
	Consumed     int64   `json:"consumed"`
	Queued       int64   `json:"queued"`
	Stalls       int64   `json:"stalls"`
	StallSeconds float64 `json:"stall_seconds"`
	Finished     bool    `json:"finished"`
	Snapshots    bool    `json:"has_snapshot"`

	// Lifecycle counters, all zero unless FinalizeAfter is set.
	ActiveTags   int64 `json:"active_tags"`
	Finalized    int64 `json:"finalized"`
	Discarded    int64 `json:"discarded"`
	LateReads    int64 `json:"late_reads"`
	LimitRejects int64 `json:"limit_rejects"`
}

// EmittedEntry is one finalized tag on the wire: its sequence number in
// the emission stream (its immutable global position), its EPC, and the
// bottom time of its frozen X key on the deployment clock.
type EmittedEntry struct {
	Seq        int64   `json:"seq"`
	EPC        string  `json:"epc"`
	BottomTime float64 `json:"bottom_time"`
}

// EmittedResponse answers GET /v1/sessions/{id}/emitted: one cursor page
// of the session's ordered emission stream. Entries never change once
// emitted, so a consumer paging with next_cursor sees each finalized tag
// exactly once, in final global order, across any number of polls.
type EmittedResponse struct {
	SessionID  string         `json:"session_id"`
	Entries    []EmittedEntry `json:"entries"`
	NextCursor int64          `json:"next_cursor"`
	Total      int64          `json:"total"`
	Final      bool           `json:"final"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/sessions               create a session (body: trace.Header JSON)
//	POST   /v1/sessions/{id}/reads    ingest NDJSON read lines (trace JSONL format)
//	GET    /v1/sessions/{id}/order    latest published snapshot (?refresh=1 forces one)
//	GET    /v1/sessions/{id}/emitted  finalized-tag stream page (?cursor=N&limit=M)
//	POST   /v1/sessions/{id}/finish   drain, final snapshot, close ingest
//	GET    /v1/sessions/{id}          session counters
//	DELETE /v1/sessions/{id}          abort and drop the session
//	GET    /v1/stats                  server-wide counters
//	GET    /metrics                   Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/reads", s.handleReads)
	mux.HandleFunc("GET /v1/sessions/{id}/order", s.handleOrder)
	mux.HandleFunc("GET /v1/sessions/{id}/emitted", s.handleEmitted)
	mux.HandleFunc("POST /v1/sessions/{id}/finish", s.handleFinish)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStats)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDrop)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	sess, ok := s.Session(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
	}
	return sess, ok
}

// handleCreate opens a session from a trace.Header body. The header is
// journaled as one WAL record, so a body beyond wal.MaxRecord is refused
// with 413 before anything is created.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var h trace.Header
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, wal.MaxRecord))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "header exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parse header: %v", err)
		return
	}
	sess, err := s.CreateSession(h)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{ID: sess.ID})
}

// handleReads streams NDJSON read lines into the session queue in
// MaxBatch chunks. A malformed line or unknown reader ID aborts the body
// with 400 — reads on earlier lines are already enqueued, mirroring
// ShardedEngine.Consume's partial-batch semantics. Blocking on a full
// queue is deliberate: it is the backpressure path.
func (s *Server) handleReads(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	accepted := 0
	batch := make([]reader.TagRead, 0, s.opts.MaxBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := sess.Enqueue(batch); err != nil {
			return err
		}
		accepted += len(batch)
		batch = make([]reader.TagRead, 0, s.opts.MaxBatch)
		return nil
	}
	line := 0
	for sc.Scan() {
		line++
		// Scanner-owned bytes, trimmed in place: no per-line copies on
		// the ingest hot path (UnmarshalRead does not retain the buffer).
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		rd, err := trace.UnmarshalRead(raw)
		if err != nil {
			s.abortReads(w, flush, "line %d: %v", line, err)
			return
		}
		if !sess.ValidReader(rd.Reader) {
			s.abortReads(w, flush, "line %d: unknown reader ID %d", line, rd.Reader)
			return
		}
		batch = append(batch, rd)
		if len(batch) >= s.opts.MaxBatch {
			if err := flush(); err != nil {
				writeError(w, enqueueStatus(err), "%v", err)
				return
			}
		}
	}
	if err := sc.Err(); err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := flush(); err != nil {
		writeError(w, enqueueStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Accepted: accepted})
}

// enqueueStatus maps an Enqueue failure to its HTTP status: the
// MaxActiveTags admission valve is 429 (retry after the lifecycle retires
// tags), everything else — a closed session — is 409.
func enqueueStatus(err error) int {
	if errors.Is(err, ErrTooManyTags) {
		return http.StatusTooManyRequests
	}
	return http.StatusConflict
}

// abortReads rejects an ingest body mid-stream, first flushing the valid
// lines before the offending one (the documented partial-batch
// semantics). When that salvage flush itself fails — say the session was
// finished concurrently — the response must say so, or the client would
// wrongly believe the earlier lines were accepted.
func (s *Server) abortReads(w http.ResponseWriter, flush func() error, format string, args ...any) {
	if ferr := flush(); ferr != nil {
		writeError(w, http.StatusConflict, "%s; earlier reads also rejected: %v",
			fmt.Sprintf(format, args...), ferr)
		return
	}
	writeError(w, http.StatusBadRequest, format, args...)
}

func (s *Server) handleOrder(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var snap *Snapshot
	var err error
	if r.URL.Query().Get("refresh") != "" {
		snap, err = sess.Refresh()
	} else {
		snap = sess.Latest()
	}
	if err != nil {
		// "No tag profiles yet" on a session that has consumed nothing is
		// the same benign warming-up state the non-refresh path reports;
		// only errors with reads behind them are real failures.
		if sess.Consumed() == 0 {
			writeJSON(w, http.StatusAccepted, errorResponse{Error: "no reads consumed yet"})
			return
		}
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	if snap == nil {
		writeJSON(w, http.StatusAccepted, errorResponse{Error: "no snapshot published yet"})
		return
	}
	writeJSON(w, http.StatusOK, orderResponse(sess.ID, snap))
}

// handleEmitted pages through the session's emission stream as of its
// latest published snapshot (emission happens inside snapshots, so the
// stream is as fresh as the last publish; GET /order?refresh=1 forces
// one). Entries are immutable and the cursor is the emission sequence
// number, so paging is exactly-once even across crashes and restores.
func (s *Server) handleEmitted(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	cursor, err := queryInt(r, "cursor", 0)
	if err == nil && cursor < 0 {
		err = fmt.Errorf("negative cursor %d", cursor)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := queryInt(r, "limit", 512)
	if err == nil && limit <= 0 {
		err = fmt.Errorf("non-positive limit %d", limit)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit = min(limit, 4096)
	resp := EmittedResponse{SessionID: sess.ID}
	var em []deploy.EmittedTag
	if snap := sess.Latest(); snap != nil {
		// The emitted slice's backing array is append-only: entries never
		// change once emitted, so reading a published snapshot's view is
		// safe while the engine keeps appending.
		em = snap.Result.Emitted
		resp.Total = int64(len(em))
		resp.Final = snap.Final
	}
	// Clamp the window to [0, Total] BEFORE doing cursor arithmetic: a
	// cursor past the end (a consumer that over-paged, or one polling an
	// empty stream) yields a well-formed empty page whose next_cursor is
	// Total — resumable, never a phantom position — and cursor+limit near
	// MaxInt64 can no longer overflow into a negative bound.
	start := min(cursor, resp.Total)
	end := min(start+limit, resp.Total)
	resp.NextCursor = end
	for seq := start; seq < end; seq++ {
		resp.Entries = append(resp.Entries, EmittedEntry{
			Seq:        seq,
			EPC:        em[seq].EPC.String(),
			BottomTime: em[seq].X.BottomTime,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryInt parses an optional integer query parameter: an optional '-'
// followed by decimal digits, nothing else. strconv.ParseInt alone would
// also take a leading '+' — which the "not an integer" error message
// (and the cursor echo semantics) never admitted — so the sign gate
// keeps accepted inputs and the stable 400 message consistent.
func queryInt(r *http.Request, name string, def int64) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	body := raw
	if body[0] == '-' {
		body = body[1:]
	}
	for i := 0; i < len(body); i++ {
		if body[i] < '0' || body[i] > '9' {
			return 0, fmt.Errorf("%s %q: not an integer", name, raw)
		}
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: not an integer", name, raw)
	}
	return v, nil
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	snap, err := sess.Finish()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, orderResponse(sess.ID, snap))
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	// Consumed samples before Enqueued (effect before cause) so the pair
	// stays consistent under concurrent ingest — see Server.Stats. The
	// lifecycle counters come from one atomically-published view, so the
	// finalized/discarded/late trio is always from the same sweep.
	consumed := sess.Consumed()
	life := sess.lifecycle()
	writeJSON(w, http.StatusOK, SessionStats{
		SessionID:    sess.ID,
		Enqueued:     sess.Enqueued(),
		Consumed:     consumed,
		Queued:       sess.Queued(),
		Stalls:       sess.Stalls(),
		StallSeconds: sess.StallSeconds(),
		Finished:     sess.finished(),
		Snapshots:    sess.Latest() != nil,

		ActiveTags:   sess.activeTags.Load(),
		Finalized:    life.finalized,
		Discarded:    life.discarded,
		LateReads:    life.lateReads,
		LimitRejects: sess.limitRejects.Load(),
	})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.session(w, r); !ok {
		return
	}
	s.DropSession(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// orderResponse flattens a snapshot for the wire.
func orderResponse(id string, snap *Snapshot) OrderResponse {
	resp := OrderResponse{
		SessionID:   id,
		Final:       snap.Final,
		Reads:       snap.Reads,
		Tags:        len(snap.Result.XOrder),
		XOrder:      trace.EncodeEPCs(snap.Result.XOrder),
		YOrder:      trace.EncodeEPCs(snap.Result.YOrder),
		XConfidence: snap.Result.XConfidence,
		SnapshotMs:  float64(snap.Latency.Nanoseconds()) / 1e6,
	}
	for _, sh := range snap.Result.Shards {
		so := ShardOrder{ReaderID: sh.ReaderID}
		if sh.Result != nil {
			so.Tags = len(sh.Result.Tags)
			so.XOrder = trace.EncodeEPCs(sh.Result.XOrderEPCs())
			so.YOrder = trace.EncodeEPCs(sh.Result.YOrderEPCs())
		}
		resp.Shards = append(resp.Shards, so)
	}
	return resp
}

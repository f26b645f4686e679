package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/deploy"
	"repro/internal/epcgen2"
	"repro/internal/reader"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ladder replays a workload's request bodies in process, one request at a
// time, through the public functions stppd calls for each request —
// trace.UnmarshalRead, the wal.Log journal, the deploy.ShardedEngine — and
// records a span around every call. The spans give each layer's self
// time without instrumenting the daemon; the counters below give the
// work each layer did. A nil tracer makes the untraced pass whose wall
// time prices the tracing.
type ladder struct {
	tr   *tracer
	cfg  daemonConfig
	dir  string // session logs go under dir
	open int    // sessions opened, for log directory names

	reads, posts        int64 // reads and POST bodies decoded and consumed
	snapshots, changed  int64 // engine snapshots, and those whose X order moved
	resident            int64 // resident tags summed over snapshots
	ckpts, ckptBytes    int64 // engine checkpoints and their bytes
	truncated           int64 // WAL segments truncated behind checkpoints
	recovered, recBytes int64 // sessions recovered and the log bytes scanned
	replayed            int64 // suffix reads consumed during recovery
	recReads            int64 // reads the recovered sessions came back holding
	encodes             int64 // order responses encoded
	emitted, discarded  int64 // lifecycle outcomes, over closed sessions
	late                int64
	// busy is the wall time spent inside requests, traced or not: the
	// base of the tracing overhead, free of input generation.
	busy time.Duration
	// refreshPerPost is how many refreshed order queries the daemon run's
	// query connection issued per POST; the portals ladder replays that
	// mix.
	refreshPerPost float64
	// bootMeasured is set when the daemon run charges boot-time recovery
	// to the workload, as restart-recover does: the recover requests then
	// count toward the attributed CPU, and their reads toward its base.
	bootMeasured bool
}

// lsession is one session of the ladder: the engine and journal stppd
// would hold for it, and the session's publish and checkpoint cadence.
type lsession struct {
	id                  string
	dir                 string
	se                  *deploy.ShardedEngine
	log                 *wal.Log // nil once closed, and for finished recovered logs
	consumed            int64
	sincePub, sinceCkpt int
	latest              *deploy.GlobalResult
	lastX               []epcgen2.EPC
	ckptBuf             []byte
	// recovered marks a session rebuilt from its log: its lifecycle
	// outcomes were already counted when the original closed.
	recovered bool
}

func (l *ladder) walOpts() wal.Options { return wal.Options{Fsync: l.cfg.fsync} }

// span runs f inside a span of the current request.
func (l *ladder) span(name string, f func() error) error {
	l.tr.begin(name)
	defer l.tr.end()
	return f()
}

// request runs f as one request: a root span its layer spans nest under.
func (l *ladder) request(name string, f func() error) error {
	t0 := time.Now()
	l.tr.request(name)
	err := f()
	l.tr.end()
	l.busy += time.Since(t0)
	return err
}

// create is POST /v1/sessions: a fresh engine and a journal holding the
// header.
func (l *ladder) create(in *traceInput) (*lsession, error) {
	l.open++
	s := &lsession{id: fmt.Sprintf("s%06d", l.open)}
	s.dir = filepath.Join(l.dir, s.id)
	err := l.request("create", func() (err error) {
		if s.se, err = newEngine(in.hdr, l.cfg.finalize); err != nil {
			return err
		}
		s.log, err = wal.Create(s.dir, in.hdr, l.walOpts())
		return err
	})
	return s, err
}

// post is POST /reads: decode the body, journal it, wait for durability,
// consume it, and publish or checkpoint when the cadence says so.
func (l *ladder) post(s *lsession, data []byte) error {
	return l.request("post", func() error {
		batch := make([]reader.TagRead, 0, 256)
		err := l.span("trace.decode", func() error {
			for rest := data; len(rest) > 0; {
				var line []byte
				line, rest, _ = bytes.Cut(rest, []byte{'\n'})
				if line = bytes.TrimSpace(line); len(line) == 0 {
					continue
				}
				rd, err := trace.UnmarshalRead(line)
				if err != nil {
					return err
				}
				batch = append(batch, rd)
			}
			return nil
		})
		if err != nil {
			return err
		}
		var seq int64
		if err := l.span("wal.append", func() (err error) {
			seq, err = s.log.AppendBatchAsync(batch)
			return err
		}); err != nil {
			return err
		}
		if err := l.span("wal.durable_wait", func() error { return s.log.WaitDurable(seq) }); err != nil {
			return err
		}
		if err := l.span("deploy.consume", func() error { return s.se.Consume(batch) }); err != nil {
			return err
		}
		n := len(batch)
		l.reads += int64(n)
		l.posts++
		s.consumed += int64(n)
		if s.sincePub += n; s.sincePub >= publishEvery {
			s.sincePub = 0
			l.snapshot(s) // "no profiles yet" just means nothing to publish
		}
		if ce := l.cfg.checkpointEvery; ce > 0 {
			if s.sinceCkpt += n; s.sinceCkpt >= ce {
				s.sinceCkpt = 0
				return l.checkpoint(s)
			}
		}
		return nil
	})
}

func (l *ladder) snapshot(s *lsession) error {
	return l.span("deploy.snapshot", func() error {
		res, err := s.se.Snapshot()
		if err != nil {
			return err
		}
		l.snapshots++
		l.resident += int64(s.se.Tags())
		if !slices.Equal(res.XOrder, s.lastX) {
			l.changed++
		}
		s.lastX = append(s.lastX[:0], res.XOrder...)
		s.latest = res
		return nil
	})
}

func (l *ladder) checkpoint(s *lsession) error {
	l.span("deploy.checkpoint", func() error {
		s.ckptBuf = s.se.Checkpoint(s.ckptBuf[:0])
		return nil
	})
	return l.span("wal.checkpoint", func() error {
		n, err := s.log.AppendCheckpoint(0, s.consumed, s.ckptBuf)
		l.ckpts++
		l.ckptBytes += int64(len(s.ckptBuf))
		l.truncated += int64(n)
		return err
	})
}

// encode is the JSON answer of an order query or a finish.
func (l *ladder) encode(s *lsession, final bool) error {
	if s.latest == nil {
		return nil // stppd answers 202 with no order
	}
	return l.span("serve.encode", func() error {
		_, err := json.Marshal(orderResponse(s.id, s.latest, s.consumed, final))
		l.encodes++
		return err
	})
}

// query is GET /order, with ?refresh=1 forcing a snapshot first.
func (l *ladder) query(s *lsession, refresh bool) error {
	return l.request("query", func() error {
		if refresh {
			if err := l.snapshot(s); err != nil {
				return err
			}
		}
		return l.encode(s, false)
	})
}

// finish is POST /finish: the finish marker, the final snapshot and its
// answer.
func (l *ladder) finish(s *lsession) error {
	err := l.request("finish", func() error {
		if err := l.span("wal.finish", s.log.AppendFinish); err != nil {
			return err
		}
		if err := l.snapshot(s); err != nil {
			return err
		}
		return l.encode(s, true)
	})
	l.close(s)
	return err
}

// close ends a session as a crash would: the journal stays as written.
func (l *ladder) close(s *lsession) {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
	if !s.recovered {
		l.emitted += int64(s.se.Finalized())
		l.discarded += s.se.Discarded()
		l.late += s.se.LateReads()
	}
	s.se.Close()
}

// recover is one session of a boot: scan and repair its log, restore the
// checkpoint into a fresh engine and replay the suffix; a finished session
// also rebuilds its final snapshot.
func (l *ladder) recover(s *lsession) (*lsession, error) {
	r := &lsession{id: s.id, dir: s.dir, recovered: true}
	err := l.request("recover", func() error {
		var rec *wal.Recovered
		if err := l.span("wal.recover", func() (err error) {
			rec, r.log, err = wal.Recover(s.dir, l.walOpts())
			return err
		}); err != nil {
			return err
		}
		l.recovered++
		l.recBytes += rec.Bytes
		if err := l.span("deploy.restore", func() (err error) {
			if r.se, err = newEngine(rec.Header, l.cfg.finalize); err != nil || rec.Checkpoint == nil {
				return err
			}
			return r.se.Restore(rec.Checkpoint)
		}); err != nil {
			return err
		}
		if err := l.span("deploy.replay", func() error {
			for _, b := range rec.Batches {
				if err := r.se.Consume(b); err != nil {
					return err
				}
				l.replayed += int64(len(b))
			}
			return nil
		}); err != nil {
			return err
		}
		r.consumed = rec.CheckpointReads + int64(rec.Reads)
		l.recReads += r.consumed
		if rec.Finished {
			// A finished session comes back at its final snapshot.
			return l.snapshot(r)
		}
		return nil
	})
	return r, err
}

// orderResponse renders a snapshot the way stppd's order endpoints do.
func orderResponse(id string, res *deploy.GlobalResult, reads int64, final bool) serve.OrderResponse {
	resp := serve.OrderResponse{
		SessionID:   id,
		Final:       final,
		Reads:       reads,
		Tags:        len(res.XOrder),
		XOrder:      trace.EncodeEPCs(res.XOrder),
		YOrder:      trace.EncodeEPCs(res.YOrder),
		XConfidence: res.XConfidence,
	}
	for _, sh := range res.Shards {
		so := serve.ShardOrder{ReaderID: sh.ReaderID}
		if sh.Result != nil {
			so.Tags = len(sh.Result.Tags)
			so.XOrder = trace.EncodeEPCs(sh.Result.XOrderEPCs())
			so.YOrder = trace.EncodeEPCs(sh.Result.YOrderEPCs())
		}
		resp.Shards = append(resp.Shards, so)
	}
	return resp
}

// ladderFirehose: aisle sessions back to back, cycling through the
// variants, the two readers' bodies interleaved, a live-order read every
// firehoseQueryEvery POSTs of each reader, a finish; then a boot
// recovering every session.
func ladderFirehose(e *env, w *workload, l *ladder) error {
	ins, err := e.aisle()
	if err != nil {
		return err
	}
	var done []*lsession
	for i := 0; i < e.size.ladderSessions; i++ {
		in := ins[i%len(ins)]
		streams, err := readerBodies(in, w.batch)
		if err != nil {
			return err
		}
		s, err := l.create(in)
		if err != nil {
			return err
		}
		for j := 0; j < max(len(streams[0]), len(streams[1])); j++ {
			for _, st := range streams {
				if j >= len(st) {
					continue
				}
				if err := l.post(s, st[j].data); err != nil {
					return err
				}
				if j%firehoseQueryEvery == firehoseQueryEvery-1 {
					if err := l.query(s, false); err != nil {
						return err
					}
				}
			}
		}
		if err := l.finish(s); err != nil {
			return err
		}
		done = append(done, s)
	}
	return l.recoverAll(done, false)
}

// recoverAll boots every session back and, with query, answers one order
// query for it: refreshed for a live session, the final snapshot for a
// finished one.
func (l *ladder) recoverAll(sessions []*lsession, query bool) error {
	for _, s := range sessions {
		r, err := l.recover(s)
		if err != nil {
			return err
		}
		if query {
			if err := l.query(r, r.log != nil); err != nil {
				return err
			}
		}
		l.close(r)
	}
	return nil
}

// ladderBelt: one belt session, a poll of the live order every pollEvery
// of the open-loop schedule, then a boot recovering it.
func ladderBelt(e *env, w *workload, l *ladder) error {
	in, err := e.belt(w)
	if err != nil {
		return err
	}
	bodies, err := chunk(in.reads, w.batch)
	if err != nil {
		return err
	}
	pollRatio := max(1, int(pollEvery/w.interval()))
	s, err := l.create(in)
	if err != nil {
		return err
	}
	for i, b := range bodies[:min(len(bodies), e.size.ladderBeltPosts)] {
		if err := l.post(s, b.data); err != nil {
			return err
		}
		if i%pollRatio == 0 {
			if err := l.query(s, false); err != nil {
				return err
			}
		}
	}
	l.close(s)
	return l.recoverAll([]*lsession{s}, false)
}

// ladderPortals: staggered airport sessions fed round robin, refreshed
// order queries at the daemon run's rate per POST, one live session after
// another, full sessions finished and replaced; then a boot recovering the
// live ones.
func ladderPortals(e *env, w *workload, l *ladder) error {
	ins, err := e.portals()
	if err != nil {
		return err
	}
	type slot struct {
		s      *lsession
		in     *traceInput
		bodies []body
		next   int
	}
	slots := make([]*slot, e.size.portalSessions)
	for j := range slots {
		sl := &slot{in: ins[j%len(ins)]}
		if sl.bodies, err = chunk(sl.in.reads, w.batch); err != nil {
			return err
		}
		if sl.s, err = l.create(sl.in); err != nil {
			return err
		}
		sl.next = j * len(sl.bodies) / len(slots)
		for _, b := range sl.bodies[:sl.next] {
			if err := l.post(sl.s, b.data); err != nil {
				return err
			}
		}
		slots[j] = sl
	}
	var due float64 // refreshes owed
	q := 0
	for i := 0; i < e.size.ladderPortalPosts; i++ {
		sl := slots[i%len(slots)]
		if err := l.post(sl.s, sl.bodies[sl.next].data); err != nil {
			return err
		}
		if sl.next++; sl.next == len(sl.bodies) {
			if err := l.finish(sl.s); err != nil {
				return err
			}
			if sl.s, err = l.create(sl.in); err != nil {
				return err
			}
			sl.next = 0
		}
		for due += l.refreshPerPost; due >= 1; due-- {
			if s := slots[q%len(slots)].s; s.consumed > 0 {
				if err := l.query(s, true); err != nil {
					return err
				}
			}
			q++
		}
	}
	var live []*lsession
	for _, sl := range slots {
		l.close(sl.s)
		live = append(live, sl.s)
	}
	return l.recoverAll(live, false)
}

// ladderRestart: the crash preparation of restart-recover, then one boot:
// recover and query every session, and stream the live ones to the end.
func ladderRestart(e *env, w *workload, l *ladder) error {
	sessions, err := restartSessions(e, w)
	if err != nil {
		return err
	}
	// The daemon run times a boot from exec and leaves the crash
	// preparation untimed; the ladder traces and counts the same share.
	l.bootMeasured = true
	prep := &ladder{cfg: l.cfg, dir: l.dir}
	crashed := make([]*lsession, len(sessions))
	for i, rs := range sessions {
		s, err := prep.create(rs.in)
		if err != nil {
			return err
		}
		for _, b := range rs.bodies[:rs.sent] {
			if err := prep.post(s, b.data); err != nil {
				return err
			}
		}
		if rs.finished {
			err = prep.finish(s)
		} else {
			prep.close(s)
		}
		if err != nil {
			return err
		}
		crashed[i] = s
	}
	for i, rs := range sessions {
		r, err := l.recover(crashed[i])
		if err != nil {
			return err
		}
		if err := l.query(r, !rs.finished); err != nil {
			return err
		}
		if rs.finished {
			l.close(r)
			continue
		}
		for _, b := range rs.bodies[rs.sent:] {
			if err := l.post(r, b.data); err != nil {
				return err
			}
		}
		if err := l.finish(r); err != nil {
			return err
		}
	}
	return nil
}

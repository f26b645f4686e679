package main

import (
	"os"
	"time"

	"repro/internal/serve"
)

// restartCut is the share of each aisle trace journaled before the crash.
const restartCut = 0.6

// restartSession is one session the crashed daemon held: the trace it
// replays, its POST bodies, how many of them it was sent, and whether it
// was finished before the crash.
type restartSession struct {
	id       string
	in       *traceInput
	bodies   []body
	sent     int
	finished bool
}

// runRestart crashes a daemon holding live and finished sessions, then
// repeatedly cold-boots a fresh copy of its data directory: each boot is
// timed to its first answer, every recovered session is queried, and the
// live sessions are streamed to the end of their traces and finished.
func runRestart(e *env, w *workload, r *record) error {
	dir, sessions, err := prepareRestart(e, w, r)
	if err != nil {
		return err
	}
	v := newVerifier(w.daemon.finalize, w.batch)
	start := time.Now()
	for iter := 0; iter < 2 || time.Since(start) < e.duration(); iter++ {
		boot := e.freshDir()
		if err := r.op(os.CopyFS(boot, os.DirFS(dir))); err != nil {
			return err
		}
		d, err := startDaemon(e.stppd, boot, w.daemon)
		if r.op(err) != nil {
			return err
		}
		r.add(&r.setup, d.setup.Seconds())
		var answers []answer
		err = measureFrom(d, r, usage{}, func() error {
			var err error
			answers, err = resumeAfterRestart(d, r, sessions)
			return err
		})
		d.stop()
		if err != nil {
			return err
		}
		os.RemoveAll(boot)
		verifyAll(v, r, answers)
	}
	return nil
}

// restartSessions lays out the sessions the crash leaves behind: live
// aisle sessions sent restartCut of their traces, then finished portal
// sessions, cycling through the trace variants.
func restartSessions(e *env, w *workload) ([]*restartSession, error) {
	aisles, err := e.aisle()
	if err != nil {
		return nil, err
	}
	portals, err := e.portals()
	if err != nil {
		return nil, err
	}
	var sessions []*restartSession
	for i := 0; i < e.size.restartAisle+e.size.restartPortals; i++ {
		s := &restartSession{in: aisles[i%len(aisles)]}
		if i >= e.size.restartAisle {
			s = &restartSession{in: portals[i%len(portals)], finished: true}
		}
		if s.bodies, err = chunk(s.in.reads, w.batch); err != nil {
			return nil, err
		}
		s.sent = len(s.bodies)
		if !s.finished {
			s.sent = int(float64(len(s.bodies)) * restartCut)
		}
		sessions = append(sessions, s)
	}
	return sessions, nil
}

// prepareRestart is the untimed crash: a daemon is fed the restart
// sessions, left to drain, and SIGKILLed. It returns the data directory
// and the sessions.
func prepareRestart(e *env, w *workload, r *record) (string, []*restartSession, error) {
	sessions, err := restartSessions(e, w)
	if err != nil {
		return "", nil, err
	}
	dir := e.freshDir()
	d, err := startDaemon(e.stppd, dir, w.daemon)
	if r.op(err) != nil {
		return "", nil, err
	}
	defer d.stop()
	for _, s := range sessions {
		if s.id, err = d.conns[0].create(s.in); r.op(err) != nil {
			return "", nil, err
		}
	}
	err = eachConn(d, func(k int, c *conn) error {
		for i := k; i < len(sessions); i += connections {
			s := sessions[i]
			for _, b := range s.bodies[:s.sent] {
				if err := r.op(c.post(s.id, b)); err != nil {
					return err
				}
			}
			if s.finished {
				if _, err := c.finish(s.id); r.op(err) != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return "", nil, err
	}
	// Crash only once every journaled read is consumed, so each boot
	// recovers the same checkpoints and suffixes.
	for {
		s, err := d.conns[0].stats()
		if r.op(err) != nil {
			return "", nil, err
		}
		if s.QueueDepthReads == 0 && s.ReadsConsumed == s.ReadsIngested {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return dir, sessions, nil
}

// resumeAfterRestart is one recovered boot's work: query every recovered
// session, then stream the rest of every live session's trace and finish
// it. It returns every session's final answer.
func resumeAfterRestart(d *daemon, r *record, sessions []*restartSession) ([]answer, error) {
	answers := make([]answer, len(sessions))
	err := eachConn(d, func(k int, c *conn) error {
		for i := k; i < len(sessions); i += connections {
			s := sessions[i]
			// A live session's order is rebuilt on demand; a finished one
			// came back at its final snapshot.
			var resp *serve.OrderResponse
			lat, err := r.timed(c, time.Now(), func() (err error) {
				resp, err = c.order(s.id, !s.finished)
				return err
			})
			if err != nil {
				return err
			}
			r.add(&r.query, lat)
			answers[i] = answer{resp, s.in, len(s.in.reads)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	err = eachConn(d, func(k int, c *conn) error {
		for i := k; i < len(sessions); i += connections {
			s := sessions[i]
			if s.finished {
				continue
			}
			var last time.Time
			for _, b := range s.bodies[s.sent:] {
				last = time.Now()
				lat, err := r.timed(c, last, func() error { return c.post(s.id, b) })
				if err != nil {
					return err
				}
				r.add(&r.ack, lat)
			}
			lat, err := r.timed(c, last, func() (err error) {
				answers[i].final, err = c.finish(s.id)
				return err
			})
			if err != nil {
				return err
			}
			r.add(&r.visible, lat)
		}
		return nil
	})
	r.window += time.Since(start)
	for _, s := range sessions {
		if !s.finished {
			r.reads += int64(readsIn(s.bodies[s.sent:]))
			r.posts += int64(len(s.bodies) - s.sent)
		}
	}
	return answers, err
}

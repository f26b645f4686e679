package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"

	prom "repro/internal/metrics"
)

// This file is stppd's Prometheus exposition layer: PromMetrics renders
// one Stats sample — every field with a prom tag — plus the per-session
// queue gauges and the snapshot-latency histogram into the text format
// (version 0.0.4) using the dependency-free writer in internal/metrics,
// and handleMetrics serves it as GET /metrics. The family catalog is
// pinned by a golden-file test (names, types, help text and label sets —
// not values), so renames and type changes are deliberate acts, and a
// promtool-style lint test keeps the output parseable by a real scraper.

// promField is one Stats field's /metrics family, parsed from its tags.
type promField struct {
	index        int // field index in Stats
	field, after string
	name, help   string
	open         func(w *prom.PromWriter, name, help string) // Counter or Gauge
}

// promFields lists Stats' families in exposition order.
var promFields = parsePromFields()

// parsePromFields reads the prom and help tags of Stats once. A malformed
// tag is a programming error, so it panics at init rather than surfacing
// as a broken scrape.
func parsePromFields() []promField {
	t := reflect.TypeFor[Stats]()
	var all []promField
	for i := range t.NumField() {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("prom")
		if !ok {
			continue
		}
		name, typ, _ := strings.Cut(tag, ",")
		typ, after, _ := strings.Cut(typ, ",after=")
		f := promField{index: i, field: sf.Name, after: after, name: name, help: sf.Tag.Get("help")}
		switch typ {
		case "counter":
			f.open = (*prom.PromWriter).Counter
		case "gauge":
			f.open = (*prom.PromWriter).Gauge
		}
		if k := sf.Type.Kind(); f.open == nil || (k != reflect.Int && k != reflect.Int64 && k != reflect.Float64) {
			panic(fmt.Sprintf("serve: Stats.%s: bad prom tag %q on a %v field", sf.Name, tag, k))
		}
		all = append(all, f)
	}
	var out []promField
	var place func(after string)
	place = func(after string) {
		for _, f := range all {
			if f.after == after {
				out = append(out, f)
				place(f.field)
			}
		}
	}
	place("")
	if len(out) != len(all) {
		panic("serve: a Stats prom tag follows a field without a family")
	}
	return out
}

// PromMetrics renders the server's Prometheus exposition body from one
// Stats sample, so both surfaces share its effect-before-cause sampling.
// The per-session queue gauges follow the stall families, and the
// snapshot-latency histogram follows the snapshot counter.
func (s *Server) PromMetrics() ([]byte, error) {
	st := reflect.ValueOf(s.Stats())
	w := &prom.PromWriter{}
	for _, f := range promFields {
		f.open(w, f.name, f.help)
		if v := st.Field(f.index); v.CanFloat() {
			w.Value(v.Float())
		} else {
			w.Value(float64(v.Int()))
		}
		switch f.field {
		case "StallSeconds":
			s.writeSessionGauges(w)
		case "Snapshots":
			w.Histogram("stppd_snapshot_latency_seconds",
				"Engine snapshot latency (localize + stitch + publish).", s.metrics.snapshotLatency)
		}
	}
	return w.Bytes()
}

// writeSessionGauges writes the two per-session families for every live
// session — the set sessions_active counts — sorted by session ID.
func (s *Server) writeSessionGauges(w *prom.PromWriter) {
	s.mu.Lock()
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if !sess.finished() {
			live = append(live, sess)
		}
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })

	w.Gauge("stppd_session_queue_depth_reads", "Reads waiting in each session's ingest queue.")
	for _, sess := range live {
		w.ValueL(float64(sess.Queued()), "session", sess.ID)
	}
	w.Gauge("stppd_session_stall_seconds", "Producer time spent blocked on each session's full queue.")
	for _, sess := range live {
		w.ValueL(sess.StallSeconds(), "session", sess.ID)
	}
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

package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// result is one workload run as results.json records it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Unbounded are the speed metrics reported for reading, not for
	// comparing.
	Unbounded map[string]metric `json:"unbounded"`
	// Open loops only: how late the generator sent its requests (p99, ms)
	// and the reads still queued in the daemon when the window closed. A
	// rate holds while the first stays under 5 ms and the second near 0.
	LateP99Ms *float64 `json:"generator_late_p99_ms,omitempty"`
	Queued    *int64   `json:"queued_reads_at_end,omitempty"`
}

// runWorkload drives the real daemon through one workload and, when
// traced, replays the ladder for the per-layer breakdown, writing the
// spans to traceDir/<workload>.trace.json.
func runWorkload(e *env, w *workload, spec *benchSpec, traced bool, traceDir string) (*result, error) {
	r := &record{}
	if err := w.run(e, w, r); err != nil && r.failed == 0 {
		r.op(err)
	}
	m, unbounded := r.endToEnd(), r.unbounded()
	for _, list := range []map[string]metric{m, unbounded} {
		for name, v := range list {
			if v.N == 0 {
				r.op(fmt.Errorf("%s: no samples", name))
			}
		}
	}
	if traced {
		layers, attributed, spans, err := runLadder(e, w, r)
		if r.op(err) == nil {
			daemon := r.fromDaemon()
			for k, v := range daemon {
				layers[k] = v
			}
			cpu := daemon["serve.cpu_ns_per_read"]
			layers["serve.unattributed_ns_per_read"] = metric{
				Value: cpu.Value - attributed.Value, N: cpu.N, Supported: cpu.Supported && attributed.Supported,
			}
			for k, v := range layers {
				m[k] = v
			}
			if err := writeTrace(filepath.Join(traceDir, w.name+".trace.json"), w.name, e.seed, spans); r.op(err) != nil {
				return nil, err
			}
		}
	}
	for name, v := range m {
		s, ok := spec.find(name)
		if !ok {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
		v = finite(v)
		v.Unit = s.Unit
		m[name] = v
	}
	for name, v := range unbounded {
		unbounded[name] = finite(v)
	}
	res := &result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Errors: r.errs, Metrics: m, Unbounded: unbounded,
	}
	if w.rate > 0 && len(r.lateness) > 0 {
		late, _ := percentile(r.lateness, 99)
		res.LateP99Ms, res.Queued = &late, &r.queued
	}
	return res, nil
}

// runLadder replays the workload's ladder untraced, traced, and untraced
// again — so drift and warm-up weigh on both sides of the overhead ratio —
// and derives the per-layer metrics from the traced pass's spans and
// counters. attributed is the CPU per read the ladder can name over the
// work the daemon run measured: every layer span's self time except the
// wait for an fsync, which burns none.
func runLadder(e *env, w *workload, r *record) (layers map[string]metric, attributed metric, spans []span, err error) {
	pass := func(tr *tracer) (*ladder, error) {
		l := &ladder{tr: tr, cfg: w.daemon, dir: e.freshDir()}
		if r.posts > 0 {
			l.refreshPerPost = float64(len(r.query)) / float64(r.posts)
		}
		return l, w.ladder(e, w, l)
	}
	before, err := pass(nil)
	if err != nil {
		return nil, metric{}, nil, fmt.Errorf("ladder: %w", err)
	}
	l, err := pass(newTracer())
	if err != nil {
		return nil, metric{}, nil, fmt.Errorf("traced ladder: %w", err)
	}
	after, err := pass(nil)
	if err != nil {
		return nil, metric{}, nil, fmt.Errorf("ladder: %w", err)
	}
	plain := (before.busy + after.busy) / 2
	self := selfTimes(l.tr.spans)
	layers = l.metrics(self)
	layers["ladder.trace_overhead_ratio"] = metric{
		Value: l.busy.Seconds() / plain.Seconds(), N: int(l.tr.req), Supported: plain > 0,
	}
	var ns int64
	for name, t := range selfTimes(l.measuredSpans()) {
		if !strings.HasPrefix(name, "root:") && name != "wal.durable_wait" {
			ns += t
		}
	}
	base := l.reads
	if l.bootMeasured {
		base += l.recReads
	}
	return layers, ratio(float64(ns), base), l.tr.spans, nil
}

// measuredSpans is the traced work the daemon run's CPU figure also
// covers: every request, except the recoveries a ladder ends with when
// the daemon run does not time a boot.
func (l *ladder) measuredSpans() []span {
	if l.bootMeasured {
		return l.tr.spans
	}
	recovery := map[int64]bool{}
	for _, s := range l.tr.spans {
		if s.Parent == 0 && s.Name == "recover" {
			recovery[s.Req] = true
		}
	}
	var out []span
	for _, s := range l.tr.spans {
		if !recovery[s.Req] {
			out = append(out, s)
		}
	}
	return out
}

// finite reports a value without a number (nothing to divide, no samples)
// as an unsupported 0, which JSON can carry.
func finite(v metric) metric {
	if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
		v.Value, v.Supported = 0, false
	}
	return v
}

// ratio is num per den, supported when den is positive.
func ratio[N int64 | float64](num float64, den N) metric {
	if den <= 0 {
		return metric{Value: math.NaN()}
	}
	return metric{Value: num / float64(den), N: int(den), Supported: true}
}

// count is a total over n units of work.
func count[V int64 | float64](v V, n int64) metric {
	return metric{Value: float64(v), N: int(n), Supported: true}
}

// metrics derives the per-layer numbers from the traced pass.
func (l *ladder) metrics(self map[string]int64) map[string]metric {
	ns := func(name string) float64 { return float64(self[name]) }
	return map[string]metric{
		"trace.decode.ns_per_read":          ratio(ns("trace.decode"), l.reads),
		"wal.append.ns_per_batch":           ratio(ns("wal.append"), l.posts),
		"wal.durable_wait.ns_per_batch":     ratio(ns("wal.durable_wait"), l.posts),
		"wal.checkpoint.ns_per_call":        ratio(ns("wal.checkpoint"), l.ckpts),
		"wal.checkpoint.segments_truncated": count(l.truncated, l.ckpts),
		"wal.recover.ns_per_session":        ratio(ns("wal.recover"), l.recovered),
		"wal.recover.bytes_scanned":         ratio(float64(l.recBytes), l.recovered),
		"deploy.consume.ns_per_read":        ratio(ns("deploy.consume"), l.reads),
		"deploy.snapshot.ns_per_call":       ratio(ns("deploy.snapshot"), l.snapshots),
		"deploy.snapshot.calls_per_kread":   ratio(1000*float64(l.snapshots), l.reads),
		"deploy.snapshot.resident_tags":     ratio(float64(l.resident), l.snapshots),
		"deploy.snapshot.changed_ratio":     ratio(float64(l.changed), l.snapshots),
		"deploy.lifecycle.emitted":          count(l.emitted, l.reads),
		"deploy.lifecycle.discarded":        count(l.discarded, l.reads),
		"deploy.lifecycle.late_reads":       count(l.late, l.reads),
		"deploy.checkpoint.ns_per_call":     ratio(ns("deploy.checkpoint"), l.ckpts),
		"deploy.checkpoint.bytes":           ratio(float64(l.ckptBytes), l.ckpts),
		"deploy.restore.ns_per_session":     ratio(ns("deploy.restore"), l.recovered),
		"deploy.replay.ns_per_read":         ratio(ns("deploy.replay"), l.replayed),
		"serve.encode.ns_per_call":          ratio(ns("serve.encode"), l.encodes),
	}
}

// printResult writes one line per metric, in BENCHMARK.json order and then
// the unbounded ones by name: "workload metric value unit n=samples",
// flagged when unsupported or unbounded.
func printResult(w io.Writer, workload string, spec *benchSpec, res *result) {
	line := func(name string, v metric, flag string) {
		if !v.Supported {
			flag += " unsupported"
		}
		fmt.Fprintf(w, "%s %s %.6g %s n=%d%s\n", workload, name, v.Value, v.Unit, v.N, flag)
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, s := range list {
			if v, ok := res.Metrics[s.Name]; ok {
				line(s.Name, v, "")
			}
		}
	}
	var names []string
	for name := range res.Unbounded {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, res.Unbounded[name], " unbounded")
	}
	if res.LateP99Ms != nil {
		fmt.Fprintf(w, "%s generator late_p99 %.3g ms, %d reads queued at the end\n", workload, *res.LateP99Ms, *res.Queued)
	}
	if !res.Correct {
		fmt.Fprintf(w, "%s FAILED: %d of %d operations: %s\n", workload, res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
}

// summaryLine is the one-line JSON summary ending a single-workload run:
// the end-to-end metrics untraced, the per-layer metrics traced.
func summaryLine(spec *benchSpec, res *result, traced bool) map[string]any {
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	metrics := map[string]any{}
	for _, s := range list {
		if v, ok := res.Metrics[s.Name]; ok {
			metrics[s.Name] = map[string]any{"value": v.Value, "unit": v.Unit}
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	}
}

// missing lists the BENCHMARK.json metrics a run did not report.
func missing(spec *benchSpec, res *result, traced bool) []string {
	var out []string
	lists := [][]metricSpec{spec.EndToEnd}
	if traced {
		lists = append(lists, spec.PerLayer)
	}
	for _, list := range lists {
		for _, s := range list {
			if _, ok := res.Metrics[s.Name]; !ok {
				out = append(out, s.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// stamp is one run's results.json.
type stamp struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

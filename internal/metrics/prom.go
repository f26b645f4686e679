package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file is the Prometheus side of the package: a dependency-free
// text-exposition writer (PromWriter), a concurrent fixed-bucket
// Histogram for latency distributions, a promtool-style format linter
// (LintProm) that CI runs as a plain Go test.

// PromWriter builds a Prometheus text-format (version 0.0.4) exposition
// body. Open a family with Counter/Gauge, then add its samples with
// Value/ValueL; Histogram writes a whole family at once. Families must
// be opened exactly once and samples belong to the most recently opened
// family — the natural shape of a scrape handler that walks its counters
// top to bottom.
type PromWriter struct {
	b   strings.Builder
	cur string // currently open family name
	err error  // first structural mistake, surfaced by Bytes
}

// metricNameOK reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func metricNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// labelNameOK reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func labelNameOK(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (w *PromWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("metrics: "+format, args...)
	}
}

func (w *PromWriter) open(name, typ, help string) {
	if !metricNameOK(name) {
		w.fail("bad metric name %q", name)
		return
	}
	w.cur = name
	// HELP text: escape backslash and newline per the format spec.
	help = strings.ReplaceAll(help, `\`, `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter opens a counter family.
func (w *PromWriter) Counter(name, help string) { w.open(name, "counter", help) }

// Gauge opens a gauge family.
func (w *PromWriter) Gauge(name, help string) { w.open(name, "gauge", help) }

// Value adds an unlabeled sample to the open family.
func (w *PromWriter) Value(v float64) { w.ValueL(v) }

// ValueL adds a sample with label name/value pairs to the open family.
func (w *PromWriter) ValueL(v float64, kv ...string) {
	if w.cur == "" {
		w.fail("sample before any family")
		return
	}
	w.sample(w.cur, v, kv...)
}

func (w *PromWriter) sample(name string, v float64, kv ...string) {
	if len(kv)%2 != 0 {
		w.fail("%s: odd label list", name)
		return
	}
	w.b.WriteString(name)
	if len(kv) > 0 {
		w.b.WriteByte('{')
		for i := 0; i < len(kv); i += 2 {
			if !labelNameOK(kv[i]) {
				w.fail("%s: bad label name %q", name, kv[i])
				return
			}
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(kv[i])
			w.b.WriteString(`="`)
			w.b.WriteString(escapeLabel(kv[i+1]))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(v))
	w.b.WriteByte('\n')
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Histogram writes one histogram family from h: cumulative _bucket
// samples (ending at le="+Inf"), then _sum and _count.
func (w *PromWriter) Histogram(name, help string, h *Histogram) {
	w.open(name, "histogram", help)
	buckets, sum, count := h.snapshot()
	cum := int64(0)
	for i, ub := range h.bounds {
		cum += buckets[i]
		w.sample(name+"_bucket", float64(cum), "le", formatValue(ub))
	}
	cum += buckets[len(h.bounds)]
	w.sample(name+"_bucket", float64(cum), "le", "+Inf")
	w.sample(name+"_sum", sum)
	w.sample(name+"_count", float64(count))
	w.cur = ""
}

// Bytes returns the exposition body, or the first structural error a
// writer call recorded.
func (w *PromWriter) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return []byte(w.b.String()), nil
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe against concurrent scrapes. Bounds are upper bucket edges in
// ascending order; an implicit +Inf bucket catches the tail. A scrape is
// not an atomic snapshot across buckets — each counter is individually
// consistent, the standard Prometheus client contract.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le buckets)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) snapshot() (buckets []int64, sum float64, count int64) {
	buckets = make([]int64, len(h.counts))
	for i := range h.counts {
		buckets[i] = h.counts[i].Load()
	}
	return buckets, math.Float64frombits(h.sum.Load()), h.count.Load()
}

// DefaultLatencyBounds is the seconds-scale bucket ladder used for
// snapshot/publish latency: 100µs to ~10s, roughly ×3 per step.
func DefaultLatencyBounds() []float64 {
	return []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10}
}

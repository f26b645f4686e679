package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call. Spans of one request share req; parent is the
// enclosing span's id, 0 for the request's root span. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It serves one
// goroutine. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes of open spans, innermost last
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request opens the root span of a new request.
func (t *tracer) request(name string) {
	if t == nil {
		return
	}
	t.req++
	t.begin(name)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Req: t.req, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its child spans cover. Root (request) spans are keyed "root:<name>"
// so they never mix with a layer's name.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		key := s.Name
		if s.Parent == 0 {
			key = "root:" + s.Name
		}
		self[key] += s.End - s.Start - covered(children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, end int64 = 0, -1
	for _, s := range spans {
		start := max(s.Start, end)
		if s.End > start {
			total += s.End - start
		}
		end = max(end, s.End)
	}
	return total
}

// writeTrace saves a workload's spans as JSON.
func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

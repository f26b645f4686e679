package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/epcgen2"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// traceInput is one generated trace, ready to replay as stppd sessions.
type traceInput struct {
	// header is the session-create body: the trace header with its truth
	// fields stripped, so the daemon receives only what a reader emits.
	header []byte
	hdr    trace.Header
	// reads is the whole trace in time order.
	reads []reader.TagRead
	// truthX is the ground-truth X order the quality metric scores against.
	truthX []epcgen2.EPC
}

// body is one POST /reads request body and the reads it carries.
type body struct {
	data  []byte
	reads []reader.TagRead
}

func newTraceInput(h trace.Header, reads []reader.TagRead, truthX []epcgen2.EPC) (*traceInput, error) {
	h.TruthX, h.TruthY = nil, nil
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return &traceInput{header: hdr, hdr: h, reads: reads, truthX: truthX}, nil
}

// chunk splits reads into POST bodies of at most n reads each.
func chunk(reads []reader.TagRead, n int) ([]body, error) {
	var out []body
	for start := 0; start < len(reads); start += n {
		part := reads[start:min(start+n, len(reads))]
		data, err := trace.MarshalReads(part)
		if err != nil {
			return nil, err
		}
		out = append(out, body{data: data, reads: part})
	}
	return out, nil
}

// readsIn counts the reads bodies carry.
func readsIn(bodies []body) int {
	n := 0
	for _, b := range bodies {
		n += len(b.reads)
	}
	return n
}

// byReader splits a multi-reader trace into one read stream per reader ID,
// in ascending ID order, as the deployment's readers would each send them.
func byReader(reads []reader.TagRead) [][]reader.TagRead {
	per := map[int][]reader.TagRead{}
	var ids []int
	for _, r := range reads {
		if _, ok := per[r.Reader]; !ok {
			ids = append(ids, r.Reader)
		}
		per[r.Reader] = append(per[r.Reader], r)
	}
	sort.Ints(ids)
	out := make([][]reader.TagRead, len(ids))
	for i, id := range ids {
		out[i] = per[id]
	}
	return out
}

// aisleInput is the two-reader warehouse aisle: static tagged items, one
// reader cart sweeping each half, overlap items read by both.
func aisleInput(seed int64, tags int) (*traceInput, error) {
	ms, err := scenario.WarehouseAisle(scenario.AisleOpts{Tags: tags, Overlap: 0.30, Speed: 0.20, Seed: seed})
	if err != nil {
		return nil, err
	}
	reads, err := ms.Run()
	if err != nil {
		return nil, err
	}
	return newTraceInput(trace.Header{Scenario: "aisle", Seed: seed, Readers: ms.ReaderMetas()}, reads, ms.TruthX)
}

// portalsInput is the three-portal airport belt: every bag passes every
// portal, so every bag is an overlap tag in every zone.
func portalsInput(seed int64, bags int) (*traceInput, error) {
	o := scenario.DefaultPortalsOpts(bags, seed)
	o.Portals = 3
	ms, err := scenario.AirportPortals(o)
	if err != nil {
		return nil, err
	}
	reads, err := ms.Run()
	if err != nil {
		return nil, err
	}
	return newTraceInput(trace.Header{Scenario: "airport-portals", Seed: seed, Readers: ms.ReaderMetas()}, reads, ms.TruthX)
}

// beltInput is an endless conveyor belt: one conveyor-churn pass of tags,
// tiled until the belt holds at least minReads reads.
func beltInput(seed int64, tags, minReads int) (*traceInput, error) {
	sc, err := scenario.ConveyorChurn(tags, 0.55, 0.3, seed)
	if err != nil {
		return nil, err
	}
	reads, err := sc.Run()
	if err != nil {
		return nil, err
	}
	passes := max(1, (minReads+len(reads)-1)/max(len(reads), 1))
	tiled, truth, err := tileBelt(sc, reads, passes)
	if err != nil {
		return nil, err
	}
	h := trace.Header{Scenario: "conveyor-churn", Seed: seed, PerpDist: sc.PerpDist, Speed: sc.Speed}
	return newTraceInput(h, tiled, truth)
}

// tileGap is the quiet time between the last read of one belt pass and the
// first read of the next, seconds — short against the 1.8 s between tags.
const tileGap = 0.5

// tileBelt repeats one belt pass: pass k shifts every read by k periods
// and renumbers its EPCs past every earlier pass, so the tiled belt is one
// stream of distinct tags in time order whose truth is the concatenation
// of the passes' truths. Simulating a belt of passes×tags directly costs
// far more than simulating one pass and tiling it.
func tileBelt(sc *scenario.Scene, pass []reader.TagRead, passes int) ([]reader.TagRead, []epcgen2.EPC, error) {
	if len(pass) == 0 || passes < 1 {
		return nil, nil, fmt.Errorf("tile: empty pass or %d passes", passes)
	}
	pass = append([]reader.TagRead(nil), pass...)
	sort.SliceStable(pass, func(a, b int) bool { return pass[a].Time < pass[b].Time })
	n := len(sc.Tags)
	serial := make(map[epcgen2.EPC]int, n)
	for i, t := range sc.Tags {
		serial[t.EPC] = i
	}
	renumber := func(e epcgen2.EPC, k int) (epcgen2.EPC, error) {
		i, ok := serial[e]
		if !ok {
			return e, fmt.Errorf("tile: read of unknown tag %v", e)
		}
		return epcgen2.NewEPC(uint64(k*n + i + 1)), nil
	}
	period := pass[len(pass)-1].Time - pass[0].Time + tileGap
	out := make([]reader.TagRead, 0, len(pass)*passes)
	var truth []epcgen2.EPC
	for k := 0; k < passes; k++ {
		for _, r := range pass {
			e, err := renumber(r.EPC, k)
			if err != nil {
				return nil, nil, err
			}
			r.EPC = e
			r.Time += float64(k) * period
			out = append(out, r)
		}
		for _, t := range sc.TruthX {
			e, err := renumber(t, k)
			if err != nil {
				return nil, nil, err
			}
			truth = append(truth, e)
		}
	}
	return out, truth, nil
}

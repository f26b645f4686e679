// Package trace records and replays reader logs as JSON Lines: a header
// line, then one read per line — human-greppable, the format a field
// deployment would archive and the one stppd speaks on the wire. The
// header carries scenario metadata and the ground truth so a trace is
// self-contained for accuracy evaluation.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/epcgen2"
	"repro/internal/reader"
)

// Header describes the recorded scenario.
type Header struct {
	// Scenario names the generator (e.g. "library", "airport-peak").
	Scenario string `json:"scenario"`
	// Seed reproduces the trace from the generator.
	Seed int64 `json:"seed"`
	// TruthX and TruthY are the ground-truth EPC orders (hex strings).
	TruthX []string `json:"truth_x,omitempty"`
	TruthY []string `json:"truth_y,omitempty"`
	// PerpDist and Speed configure the STPP reference for this trace.
	PerpDist float64 `json:"perp_dist"`
	Speed    float64 `json:"speed"`
	// Readers describes the deployment for multi-reader traces: one entry
	// per reader/antenna, keyed by the Reader field of each read. Empty for
	// single-reader traces.
	Readers []ReaderMeta `json:"readers,omitempty"`
}

// ReaderMeta is the per-reader deployment metadata a multi-reader trace
// carries so a replay can shard and stitch without the original scenario.
type ReaderMeta struct {
	// ID matches TagRead.Reader.
	ID int `json:"id"`
	// XMin and XMax bound the reader's coverage zone along the global
	// movement axis (meters). Zones order the shards when stitching falls
	// back to geometry.
	XMin float64 `json:"x_min"`
	XMax float64 `json:"x_max"`
	// PerpDist and Speed configure this reader's STPP reference, overriding
	// the header-level values when nonzero.
	PerpDist float64 `json:"perp_dist,omitempty"`
	Speed    float64 `json:"speed,omitempty"`
	// ClockOffset is this reader's local t=0 on the deployment's global
	// clock (seconds). Nonzero means this reader's reads were recorded on
	// its local clock and a replay must re-base its keys; traces whose
	// reads are already merged onto the global clock (tracegen's) leave
	// it 0.
	ClockOffset float64 `json:"clock_offset,omitempty"`
}

// Trace is a read log plus its metadata.
type Trace struct {
	Header Header
	Reads  []reader.TagRead
}

// TruthXEPCs decodes the header's X ground truth.
func (t *Trace) TruthXEPCs() ([]epcgen2.EPC, error) {
	return decodeEPCs(t.Header.TruthX)
}

// TruthYEPCs decodes the header's Y ground truth.
func (t *Trace) TruthYEPCs() ([]epcgen2.EPC, error) {
	return decodeEPCs(t.Header.TruthY)
}

func decodeEPCs(hex []string) ([]epcgen2.EPC, error) {
	out := make([]epcgen2.EPC, 0, len(hex))
	for _, s := range hex {
		e, err := epcgen2.ParseEPC(s)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// EncodeEPCs renders EPCs as hex strings for a header.
func EncodeEPCs(epcs []epcgen2.EPC) []string {
	out := make([]string, len(epcs))
	for i, e := range epcs {
		out[i] = e.String()
	}
	return out
}

// WriteJSONL writes the trace as a JSON header line followed by one JSON
// object per read.
func WriteJSONL(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.Header); err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	for i := range t.Reads {
		j := toJSONRead(t.Reads[i])
		if err := enc.Encode(&j); err != nil {
			return fmt.Errorf("trace: encode read %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace.
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	t := &Trace{}
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: read header: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	if err := json.Unmarshal(sc.Bytes(), &t.Header); err != nil {
		return nil, fmt.Errorf("trace: parse header: %w", err)
	}
	line := 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		tr, err := UnmarshalRead(raw)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Reads = append(t.Reads, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return t, nil
}

// jsonRead mirrors reader.TagRead with a hex EPC for the JSON form.
type jsonRead struct {
	EPC     string  `json:"epc"`
	Time    float64 `json:"t"`
	Phase   float64 `json:"phase"`
	RSSI    float64 `json:"rssi"`
	Channel int     `json:"ch"`
	Reader  int     `json:"rdr,omitempty"`
}

func (j jsonRead) toTagRead() (reader.TagRead, error) {
	e, err := epcgen2.ParseEPC(j.EPC)
	if err != nil {
		return reader.TagRead{}, err
	}
	return reader.TagRead{EPC: e, Time: j.Time, Phase: j.Phase, RSSI: j.RSSI, Channel: j.Channel, Reader: j.Reader}, nil
}

// MarshalRead renders one read as its JSONL wire object (no trailing
// newline) — the same line format WriteJSONL emits, exported so live
// producers (the stppd ingest daemon, loadgen) speak the trace format on
// the wire.
func MarshalRead(r reader.TagRead) ([]byte, error) {
	j := toJSONRead(r)
	return json.Marshal(&j)
}

// toJSONRead is the single TagRead→wire-object mapping shared by
// MarshalRead and WriteJSONL, so the line formats cannot drift apart field
// by field.
func toJSONRead(r reader.TagRead) jsonRead {
	return jsonRead{
		EPC:     r.EPC.String(),
		Time:    r.Time,
		Phase:   r.Phase,
		RSSI:    r.RSSI,
		Channel: r.Channel,
		Reader:  r.Reader,
	}
}

// UnmarshalRead parses one JSONL read line (the inverse of MarshalRead).
// The canonical wire shape — flat object, known keys, escape-free strings
// — takes a hand-rolled scanner (fastjson.go) that skips encoding/json's
// reflection; anything that strays from that shape is re-parsed with
// encoding/json, so unusual or malformed input keeps the stock decoder's
// semantics and error text exactly.
func UnmarshalRead(data []byte) (reader.TagRead, error) {
	if r, err, handled := fastUnmarshalRead(data); handled {
		return r, err
	}
	var j jsonRead
	if err := json.Unmarshal(data, &j); err != nil {
		return reader.TagRead{}, err
	}
	return j.toTagRead()
}

// MarshalReads renders a batch as NDJSON wire lines — one MarshalRead
// line per read, each newline-terminated: the request body stppd's
// /reads endpoint takes and loadgen replays.
func MarshalReads(reads []reader.TagRead) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range reads {
		j := toJSONRead(reads[i])
		if err := enc.Encode(&j); err != nil {
			return nil, fmt.Errorf("trace: read %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

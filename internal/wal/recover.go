package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/ckpt"
	"repro/internal/reader"
	"repro/internal/trace"
)

// ErrNoLog marks a directory with no segment files; ErrNoHeader a log
// with no recovery basis — neither a header record at the start nor a
// valid checkpoint record anywhere — so the session cannot be rebuilt.
// ErrRetiredBatch marks a log that would replay a batch record in the
// retired NDJSON format (record type 2) of earlier builds.
var (
	ErrNoLog        = errors.New("wal: no log segments")
	ErrNoHeader     = errors.New("wal: no valid session header record")
	ErrRetiredBatch = errors.New("wal: batch record type 2 (NDJSON, retired) cannot be replayed")
)

// Recovered is what a log replays to: the session header, the journaled
// batches an engine still needs to consume, and how the log ended.
type Recovered struct {
	// Header is the session's trace.Header, from the header record or the
	// latest valid checkpoint's embedded copy.
	Header trace.Header
	// Checkpoint is the serialized engine state from the latest valid
	// checkpoint record, nil if the log holds none. When set, restoring it
	// and replaying Batches reproduces the full session state. It aliases
	// the buffer its segment was read into — a checkpoint record sits alone
	// in its segment, so that buffer is the record — rather than copying
	// state that can run to hundreds of MiB.
	Checkpoint []byte
	// CheckpointReads is the read count already folded into Checkpoint;
	// the session's total is CheckpointReads + Reads.
	CheckpointReads int64
	// Batches are the journaled read batches the checkpoint does NOT
	// cover, in append order — the whole log when Checkpoint is nil. They
	// are the only batch records Recover decodes, and they share no memory
	// with the segment buffers the scan read.
	Batches [][]reader.TagRead
	// Reads is the total read count across Batches.
	Reads int
	// SupersededBytes counts the batch-record bytes, frames included, that
	// the scan CRC-checked but never decoded because a later checkpoint
	// covers them.
	SupersededBytes int64
	// Finished reports a finish marker: the session completed cleanly and
	// recovery should rebuild its final snapshot.
	Finished bool
	// Unreplayable, when set, wraps ErrRetiredBatch: a batch record the
	// log would replay is in the retired NDJSON format, so this session
	// cannot be rebuilt. Recover then leaves the log exactly as it found
	// it, returns no Log, and sets only Header, Finished, Segments and
	// Bytes beside it.
	Unreplayable error
	// Torn reports that the log ended in a corrupt or incomplete tail
	// that Recover truncated away; TornCause says why.
	Torn      bool
	TornCause error
	// Segments and Bytes describe the repaired log: segment count and
	// total valid record bytes retained.
	Segments int
	Bytes    int64
}

// SegmentRead, when set, sees every segment buffer Recover reads, from
// concurrent recoveries; tests use it to watch the buffers' lifetime.
var SegmentRead func(data []byte)

// Recover scans a session log, truncates any torn tail (a partially
// written or corrupted record, plus anything after it) back to the last
// good record boundary, and replays the surviving records. For a live
// log (no finish marker) it also reopens the repaired log for append and
// returns it; for a finished log the returned *Log is nil.
//
// A checkpoint record resets the recovery basis: the engine state it
// carries replaces everything before it, and only the batch records it
// reports as uncovered — plus everything after it — are returned in
// Batches. Segments wholly behind a checkpoint may have been truncated
// away (or may survive a crash mid-truncation: the stale prefix is
// scanned and then superseded when the checkpoint is reached).
//
// Every record's frame, CRC and, for header and checkpoint records,
// payload is checked as the scan reaches it, but a batch payload is
// decoded only once the scan is over, and only if no checkpoint covers
// it: a covered batch record is superseded like a reclaimed segment, even
// when its payload would not decode. A replayed batch record that fails
// to decode tears the log there, as if the scan had stopped at it — the
// log is rescanned up to that record, so a checkpoint behind it no longer
// counts — and the tear repeats until every replayed record decodes.
//
// A batch record in the retired NDJSON format (type 2) is superseded
// like any other when a checkpoint covers it. One that would be replayed
// makes the log unreplayable (Recovered.Unreplayable): nothing is decoded,
// truncated or deleted, and no Log is returned.
//
// A checkpoint segment a crash left under its temporary name was never
// part of the log: Recover deletes it, and the previous basis stands.
//
// Recover never panics on corrupt input and never returns a partial
// batch: a replayed batch record either decodes completely or marks the
// torn tail. It is idempotent — recovering an already-repaired log
// returns the identical Recovered with Torn unset.
func Recover(dir string, opts Options) (*Recovered, *Log, error) {
	opts.fill()
	if err := removeTemps(dir); err != nil {
		return nil, nil, err
	}
	segs, err := SegmentFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(segs) == 0 {
		return nil, nil, fmt.Errorf("%w in %s", ErrNoLog, dir)
	}

	// The first scan runs to the end of the log. Each later one stops at
	// the first replayed batch record the previous one failed to decode.
	var sc *logScan
	stopSeg, stopOff, stopCause := len(segs), int64(0), error(nil)
	for {
		if sc, err = scanLog(segs, stopSeg, stopOff, stopCause); err != nil {
			return nil, nil, err
		}
		if !sc.sawBasis {
			// Stopping the scan earlier cannot find a basis either.
			return nil, nil, fmt.Errorf("%w in %s", ErrNoHeader, dir)
		}
		bad, err := sc.decode()
		if err == nil {
			break
		}
		p := sc.pending[bad]
		if errors.Is(err, ErrRetiredBatch) {
			return &Recovered{
				Header:       sc.rec.Header,
				Finished:     sc.rec.Finished,
				Unreplayable: fmt.Errorf("%s@%d: %w", filepath.Base(segs[p.seg]), p.off, err),
				Segments:     len(segs),
				Bytes:        sc.rec.Bytes,
			}, nil, nil
		}
		// CRC-valid but undecodable: tampering or a writer bug. All-or-
		// nothing — drop the whole record, never a prefix of its reads.
		stopSeg, stopOff, stopCause = p.seg, p.off, err
	}
	rec := sc.rec
	if sc.basisDeficit > 0 {
		// The final basis checkpoint is missing some of its uncovered batch
		// records: replaying the survivors would leave a silent gap in the
		// stream. No reachable crash state produces this (truncation only
		// deletes records a DURABLE later checkpoint covers), so refuse to
		// rebuild rather than invent a lossy session.
		return nil, nil, fmt.Errorf("wal: checkpoint basis misses %d of its uncovered batch records in %s", sc.basisDeficit, dir)
	}

	// Repair: truncate the torn segment to its last good offset and drop
	// every later segment, so appends resume from a clean boundary and a
	// re-run recovers the identical prefix.
	keep := len(segs)
	if rec.Torn {
		if err := os.Truncate(segs[sc.tornSeg], sc.tornOff); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		keep = sc.tornSeg + 1
		if sc.tornOff == 0 && sc.tornSeg > 0 {
			keep = sc.tornSeg // the torn segment is now empty and not the first
		}
		for _, path := range segs[keep:] {
			if err := os.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: drop torn segment: %w", err)
			}
		}
		syncDir(dir)
	}
	rec.Segments = keep

	if rec.Finished {
		return rec, nil, nil
	}
	// Reopen the last surviving segment for append. The new instance
	// numbers batches from len(Batches) — the replayed suffix — so segment
	// metadata is rebased to that origin (pre-checkpoint segments go
	// negative and become immediately deletable at the next checkpoint).
	last := segs[keep-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reopen: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: reopen: %w", err)
	}
	l := newLog(dir, opts)
	l.f, l.w, l.seg, l.size = f, bufio.NewWriter(f), segIndex(last), st.Size()
	l.batches = int64(len(rec.Batches))
	l.headerJSON = sc.headerJSON
	base := sc.g - l.batches
	for si := 0; si < keep; si++ {
		l.segs = append(l.segs, segMeta{idx: segIndex(segs[si]), firstBatch: sc.firstG[si] - base})
	}
	return rec, l, nil
}

// pendingBatch is a scanned batch record no checkpoint covers yet. Its
// payload aliases the buffer its segment was read into; seg and off
// locate its frame, where the log tears if the payload fails to decode.
// retired marks a record in the retired NDJSON format.
type pendingBatch struct {
	payload []byte
	seg     int
	off     int64
	retired bool
}

// logScan is what one pass over a log's records leaves: the Recovered it
// fills (all but Batches, Reads and Segments), the batch records still to
// decode, and the bookkeeping the repair and the reopened log need.
type logScan struct {
	rec *Recovered
	// pending is the contiguous suffix of scanned batch records not yet
	// covered by a checkpoint (empty batch records included — uncovered
	// counts records, not reads).
	pending    []pendingBatch
	headerJSON []byte
	// g is the global batch-record ordinal; firstG[si] is g when segment
	// si began.
	firstG   []int64
	g        int64
	sawBasis bool
	// basisDeficit counts uncovered batch records the CURRENT basis
	// checkpoint claims but the scan never saw. A later checkpoint's
	// truncation may delete batch segments that sit in front of an older
	// checkpoint record, so an intermediate deficit is normal — but the
	// checkpoint that supersedes it must itself be whole, so a deficit on
	// the FINAL basis means the log lost reads and cannot be trusted.
	basisDeficit int64
	// tornSeg and tornOff mark where the scan stopped: segment index into
	// segs and the byte offset of the first bad record in it.
	tornSeg int
	tornOff int64
}

// scanLog scans segs record by record, up to the first defective record
// or, when stopCause is non-nil, up to the record at offset stopOff of
// segment stopSeg, which then tears the log with stopCause.
func scanLog(segs []string, stopSeg int, stopOff int64, stopCause error) (*logScan, error) {
	sc := &logScan{rec: &Recovered{}, tornSeg: -1}
	rec := sc.rec
	first := true
scan:
	for si, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if SegmentRead != nil {
			SegmentRead(data)
		}
		sc.firstG = append(sc.firstG, sc.g)
		off := int64(0)
		for off < int64(len(data)) {
			bad := func(cause error) {
				rec.Torn, rec.TornCause = true, fmt.Errorf("%s@%d: %w", filepath.Base(path), off, cause)
				sc.tornSeg, sc.tornOff = si, off
			}
			if si == stopSeg && off == stopOff {
				bad(stopCause)
				break scan
			}
			typ, payload, n, err := decodeFrame(data[off:])
			if err != nil {
				bad(err)
				break scan
			}
			switch {
			case rec.Finished:
				// Nothing may follow the finish marker.
				bad(errors.New("record after finish marker"))
				break scan
			case typ == recHeader:
				// Only ever the very first record: checkpoint truncation may
				// delete the segment holding it (its payload rides in every
				// checkpoint envelope), but never writes another.
				if !first {
					bad(errors.New("header record not at log start"))
					break scan
				}
				if err := json.Unmarshal(payload, &rec.Header); err != nil {
					bad(fmt.Errorf("decode header: %w", err))
					break scan
				}
				sc.headerJSON = append([]byte(nil), payload...)
				sc.sawBasis = true
			case typ == recBatch || typ == recTextBatch:
				sc.pending = append(sc.pending, pendingBatch{payload: payload, seg: si, off: off, retired: typ == recTextBatch})
				sc.g++
			case typ == recCheckpoint:
				uncovered, reads, hj, state, err := parseCheckpoint(payload)
				if err != nil {
					// A corrupt checkpoint tears the log at this record; the
					// earlier basis (header or previous checkpoint) stands.
					bad(err)
					break scan
				}
				var h trace.Header
				if err := json.Unmarshal(hj, &h); err != nil {
					bad(fmt.Errorf("checkpoint header: %w", err))
					break scan
				}
				rec.Header = h
				rec.Checkpoint = state
				rec.CheckpointReads = reads
				sc.headerJSON = append(sc.headerJSON[:0], hj...)
				// The survivors are always a suffix of this checkpoint's
				// uncovered list (truncation deletes oldest-first), so trim
				// to whichever is shorter. The records trimmed away are
				// superseded undecoded.
				keep := uncovered
				if n := int64(len(sc.pending)); keep > n {
					keep, sc.basisDeficit = n, uncovered-n
				} else {
					sc.basisDeficit = 0
				}
				cut := int64(len(sc.pending)) - keep
				for _, p := range sc.pending[:cut] {
					rec.SupersededBytes += frameLen + int64(len(p.payload))
				}
				// Zeroed, so the backing array does not keep the superseded
				// segments' buffers reachable.
				clear(sc.pending[:cut])
				sc.pending = sc.pending[cut:]
				sc.sawBasis = true
			default: // recFinish
				if !sc.sawBasis {
					bad(errors.New("finish marker before any header or checkpoint"))
					break scan
				}
				rec.Finished = true
			}
			first = false
			off += n
			rec.Bytes += n
		}
	}
	return sc, nil
}

// decode decodes the pending batch records into rec.Batches and rec.Reads,
// dropping each payload once decoded so a segment buffer is freed as soon
// as its last replayed record is. On failure it returns the index of the
// first pending record that does not decode, with ErrRetiredBatch if that
// record is in the retired format.
func (sc *logScan) decode() (int, error) {
	batches := make([][]reader.TagRead, len(sc.pending))
	reads := 0
	for i := range sc.pending {
		p := &sc.pending[i]
		if p.retired {
			return i, ErrRetiredBatch
		}
		b, err := decodeBatch(p.payload)
		if err != nil {
			return i, err
		}
		batches[i] = b
		reads += len(b)
		p.payload = nil
	}
	sc.rec.Batches, sc.rec.Reads = batches, reads
	return 0, nil
}

// removeTemps deletes the half-written checkpoint segments a crash left
// under their temporary names.
func removeTemps(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	removed := false
	for _, e := range entries {
		var idx int
		name := e.Name()
		if _, err := fmt.Sscanf(name, segPattern+tmpSuffix, &idx); err != nil ||
			name != fmt.Sprintf(segPattern+tmpSuffix, idx) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("wal: drop temporary segment: %w", err)
		}
		removed = true
	}
	if removed {
		syncDir(dir)
	}
	return nil
}

// parseCheckpoint decodes a checkpoint envelope. The returned slices
// alias the payload. Uncovered may legitimately exceed the batch records
// a scan has accumulated (later truncation deletes records in front of
// older checkpoints), so range-checking against the scan state is the
// caller's job.
func parseCheckpoint(payload []byte) (uncovered, reads int64, headerJSON, state []byte, err error) {
	r := ckpt.NewReader(payload)
	if v := r.U8(); r.Err() == nil && v != ckptVersion {
		r.Failf("checkpoint version %d", v)
	}
	uncovered = int64(r.U64())
	reads = int64(r.U64())
	headerJSON = r.Bytes()
	state = r.Bytes()
	if r.Err() == nil {
		switch {
		case r.Len() != 0:
			r.Failf("%d trailing bytes", r.Len())
		case uncovered < 0:
			r.Failf("negative checkpoint uncovered count %d", uncovered)
		case reads < 0:
			r.Failf("negative checkpoint read count %d", reads)
		}
	}
	if err := r.Err(); err != nil {
		return 0, 0, nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return uncovered, reads, headerJSON, state, nil
}

// segIndex parses a segment file's index from its name; the caller only
// hands it paths SegmentFiles produced.
func segIndex(path string) int {
	var idx int
	fmt.Sscanf(filepath.Base(path), segPattern, &idx)
	return idx
}

// decodeFrame parses one record frame at the start of data, returning its
// type, payload and total encoded length. Any structural defect — short
// frame, oversized or short payload, unknown type, CRC mismatch — is an
// error, the caller's torn-tail signal.
func decodeFrame(data []byte) (typ byte, payload []byte, n int64, err error) {
	if len(data) < frameLen {
		return 0, nil, 0, fmt.Errorf("wal: truncated frame header (%d bytes)", len(data))
	}
	typ = data[0]
	if typ < recHeader || typ > recBatch {
		return 0, nil, 0, fmt.Errorf("wal: unknown record type %d", typ)
	}
	max := uint32(MaxRecord)
	if typ == recCheckpoint {
		max = MaxCheckpoint
	}
	size := binary.LittleEndian.Uint32(data[1:5])
	if size > max {
		return 0, nil, 0, fmt.Errorf("wal: record length %d exceeds %d", size, max)
	}
	if int64(len(data)-frameLen) < int64(size) {
		return 0, nil, 0, fmt.Errorf("wal: truncated record payload (%d of %d bytes)", len(data)-frameLen, size)
	}
	payload = data[frameLen : frameLen+int(size)]
	if got, want := frameCRC(typ, payload), binary.LittleEndian.Uint32(data[5:9]); got != want {
		return 0, nil, 0, fmt.Errorf("wal: CRC mismatch (%08x vs %08x)", got, want)
	}
	return typ, payload, frameLen + int64(size), nil
}

// SegmentFiles lists the log's segment files in index order, starting at
// the lowest index present (checkpoint truncation deletes the low end, so
// a live log need not start at 1) and stopping at the first gap in the
// numbering (segments after a gap are unreachable by a sequential writer
// and are ignored).
func SegmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	byIdx := map[int]string{}
	lo := 0
	for _, e := range entries {
		var idx int
		// Sscanf ignores trailing characters, so require the exact
		// round-trip: a stray wal-00000001.seg.bak must never shadow the
		// real segment.
		if _, err := fmt.Sscanf(e.Name(), segPattern, &idx); err != nil || idx <= 0 ||
			e.Name() != fmt.Sprintf(segPattern, idx) {
			continue
		}
		byIdx[idx] = filepath.Join(dir, e.Name())
		if lo == 0 || idx < lo {
			lo = idx
		}
	}
	var out []string
	for i := lo; lo > 0; i++ {
		path, ok := byIdx[i]
		if !ok {
			break
		}
		out = append(out, path)
	}
	return out, nil
}

// RecordInfo locates one structurally valid record inside a segment, for
// inspection tooling and the crash-injection tests.
type RecordInfo struct {
	Type   byte
	Offset int64 // frame start within the segment
	End    int64 // first byte past the record
}

// InspectCheckpoint decodes the bookkeeping fields of a checkpoint
// record located by InspectSegment: how many journaled batch records its
// state left uncovered and how many reads the state folds in. For
// inspection tooling and the crash-injection tests.
func InspectCheckpoint(path string, ri RecordInfo) (uncovered, reads int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	if ri.Offset < 0 || ri.End > int64(len(data)) || ri.Offset >= ri.End {
		return 0, 0, fmt.Errorf("wal: record bounds [%d,%d) outside segment", ri.Offset, ri.End)
	}
	typ, payload, _, err := decodeFrame(data[ri.Offset:ri.End])
	if err != nil {
		return 0, 0, err
	}
	if typ != recCheckpoint {
		return 0, 0, fmt.Errorf("wal: record type %d is not a checkpoint", typ)
	}
	uncovered, reads, _, _, err = parseCheckpoint(payload)
	return uncovered, reads, err
}

// InspectSegment scans one segment file and returns the records up to the
// first structural defect (which a Recover would truncate away).
func InspectSegment(path string) ([]RecordInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []RecordInfo
	off := int64(0)
	for off < int64(len(data)) {
		typ, _, n, err := decodeFrame(data[off:])
		if err != nil {
			break
		}
		out = append(out, RecordInfo{Type: typ, Offset: off, End: off + n})
		off += n
	}
	return out, nil
}

// Sessions lists the session directories under a data dir in name order —
// the boot-time recovery sweep.
func Sessions(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	// os.ReadDir returns entries sorted by filename, so the listing is
	// already in name order.
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

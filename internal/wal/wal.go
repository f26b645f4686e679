// Package wal is the per-session write-ahead log behind stppd's durable
// sessions. A log lives in one directory per session and holds a sequence
// of length/CRC-framed records across numbered segment files: first the
// session's trace.Header, then one record per accepted read batch (its
// reads as fixed-width binary records, see batch.go), and finally an
// optional finish marker.
//
// Frame layout, little-endian:
//
//	[1 byte type][4 bytes payload length][4 bytes CRC-32C of type+payload][payload]
//
// Appends are atomic at record granularity: a crash can only produce a
// torn record at the tail of the last segment, and Recover detects it
// (short frame, oversized length, unknown type, CRC mismatch, or an
// undecodable CRC-valid payload among the records it replays), truncates
// the log back to the last good record and replays everything before it.
// Recover decodes only the batch records it replays: a batch record a
// later checkpoint covers is CRC-checked and then superseded undecoded.
// A replayed batch record of the retired NDJSON type leaves the log
// unreplayable rather than torn: Recover changes nothing on disk.
// Checkpoint records — large, and written while producers keep appending
// — never tear at all: each is written whole under a temporary name and
// renamed into place as its own segment, so a crash leaves either the
// complete record or none of it.
// Replaying a recovered log through a fresh engine therefore yields a
// final order byte-identical to an offline replay of the journaled prefix
// — the property the crash-injection tests in internal/serve enforce at
// every record boundary and mid-record.
//
// The fsync policy is a knob: SyncAlways fsyncs every append (a crashed
// *machine* loses at most the torn tail), SyncNever leaves batch appends
// to the page cache (a crashed *process* still loses nothing, since the
// kernel holds the writes). Header and finish records and segment
// rotations are always fsynced — session existence and completion are
// cheap one-time barriers.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/reader"
	"repro/internal/trace"
)

// Process-wide journal totals. Per-Log counters (Bytes) die with
// their log, which is useless for a long-running daemon whose sessions
// churn; these accumulate across every log the process ever opens, so a
// metrics scrape sees the daemon's full journaling activity.
var (
	totalBytes  atomic.Int64 // record bytes appended (frames + payloads)
	totalFsyncs atomic.Int64 // file fsyncs issued (appends, rotations, closes)
)

// TotalBytes reports the record bytes appended by this process across all
// logs, live and closed.
func TotalBytes() int64 { return totalBytes.Load() }

// TotalFsyncs reports the file fsyncs issued by this process across all
// logs (inline barrier syncs, group-commit leader syncs, segment
// rotations, Sync and Close).
func TotalFsyncs() int64 { return totalFsyncs.Load() }

// syncFile fsyncs an open segment file, counting it in the process-wide
// totals.
func syncFile(f *os.File) error {
	totalFsyncs.Add(1)
	return f.Sync()
}

// Record types.
const (
	recHeader byte = 1 // payload: trace.Header JSON
	// recTextBatch is retired: earlier builds journaled each batch as
	// NDJSON read lines. Recover supersedes such a record when a checkpoint
	// covers it and refuses to replay one otherwise (see ErrRetiredBatch).
	recTextBatch  byte = 2
	recFinish     byte = 3 // payload: empty; the session finished cleanly
	recCheckpoint byte = 4 // payload: checkpoint envelope (see AppendCheckpoint)
	recBatch      byte = 5 // payload: binary reads (appendBatch)
)

const (
	// frameLen is the fixed frame prefix: type, payload length, CRC.
	frameLen = 9
	// MaxRecord caps a header/batch/finish payload; a decoded length beyond
	// it marks a corrupt frame rather than an allocation request.
	MaxRecord = 16 << 20
	// MaxCheckpoint caps a checkpoint payload — engine state scales with
	// the tag population and profile lengths, so its budget is wider.
	MaxCheckpoint = 1 << 30
	// segPattern names segment files; numbering starts at 1, but after
	// checkpoint truncation the lowest live index may be higher.
	segPattern = "wal-%08d.seg"
	// tmpSuffix marks a checkpoint segment still being written. Only the
	// rename drops it, so SegmentFiles never lists such a file and Recover
	// deletes any a crash left behind.
	tmpSuffix = ".tmp"
)

// ckptVersion versions the checkpoint record envelope.
const ckptVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func frameCRC(typ byte, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{typ})
	return crc32.Update(crc, castagnoli, payload)
}

// Policy selects when appends reach stable storage.
type Policy int

const (
	// SyncAlways fsyncs after every append: power loss costs at most the
	// torn tail record.
	SyncAlways Policy = iota
	// SyncNever flushes batch appends to the OS but never fsyncs them:
	// durable across process crashes, not across power loss. Header,
	// finish and rotation barriers still sync.
	SyncNever
)

// ParsePolicy maps the -fsync flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|never)", s)
}

func (p Policy) String() string {
	if p == SyncNever {
		return "never"
	}
	return "always"
}

// Options tunes a Log.
type Options struct {
	// Fsync is the append durability policy. The zero value is SyncAlways.
	Fsync Policy
	// SegmentBytes rotates to a fresh segment file once the current one
	// reaches this size (records never split across segments). Default
	// 64 MiB.
	SegmentBytes int64
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// segMeta tracks one live segment: its file index and the instance-
// relative ordinal of the first batch record it holds (the value of
// l.batches when the segment was opened; recovery rebases it so it may be
// negative for pre-checkpoint segments). AppendCheckpoint uses it to
// decide which prefix segments hold only consumed batches. ckptOnly marks
// a sealed segment holding exactly one checkpoint record and nothing else
// — the next checkpoint supersedes it and reclaims its space.
type segMeta struct {
	idx        int
	firstBatch int64
	ckptOnly   bool
}

// Log is an append-only session journal. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f    *os.File
	w    *bufio.Writer
	seg  int   // current segment index
	size int64 // bytes in the current segment

	bytes   int64 // bytes appended by this process
	batches int64 // batch records appended by this log instance
	closed  bool

	// segs are the live segments, ascending index; segs[len-1] is current.
	segs []segMeta
	// headerJSON is the session header as journaled, re-embedded into
	// every checkpoint record so truncation may delete the segment holding
	// the original header record.
	headerJSON []byte

	// ckptBuf is the reused checkpoint envelope buffer.
	ckptBuf []byte

	// Group-commit state. gAppended (guarded by mu) numbers SyncAlways
	// batch appends; the rest (guarded by gmu) tracks how far fsync has
	// caught up. Lock order: mu before gmu, never the reverse.
	gAppended int64
	gmu       sync.Mutex
	gcond     *sync.Cond
	gSynced   int64
	gLeader   bool
	gErr      error
	gErrSeq   int64
}

// marshalPool recycles batch encoding buffers across AppendBatchAsync
// calls (shared by all logs; a buffer lives only from marshal to frame
// write, so the pool stays near the producer concurrency in size).
var marshalPool = sync.Pool{New: func() any { return new([]byte) }}

// newLog wires up a Log's synchronization state.
func newLog(dir string, opts Options) *Log {
	l := &Log{dir: dir, opts: opts}
	l.gcond = sync.NewCond(&l.gmu)
	return l
}

// Create opens a fresh log in dir (created if missing) and journals the
// session header as its first record, fsynced regardless of policy so the
// session's existence is durable once Create returns. It refuses a
// directory that already holds segments — recover those with Recover. On
// any error it removes what it made: the directory if it created it, else
// the segment it opened, so a failed create leaves no half-made log.
func Create(dir string, h trace.Header, opts Options) (l *Log, err error) {
	opts.fill()
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segPath := ""
	defer func() {
		switch {
		case err == nil:
		case os.IsNotExist(statErr):
			os.RemoveAll(dir)
		case segPath != "":
			os.Remove(segPath)
		}
	}()
	// Any segment — not just segment 1 — marks an existing log: after
	// checkpoint truncation the live run may start at a higher index.
	if existing, err := SegmentFiles(dir); err != nil {
		return nil, err
	} else if len(existing) > 0 {
		return nil, fmt.Errorf("wal: %s already holds a log (use Recover)", dir)
	}
	l = newLog(dir, opts)
	if err := l.openSegment(1); err != nil {
		return nil, err
	}
	segPath = filepath.Join(dir, fmt.Sprintf(segPattern, 1))
	payload, err := json.Marshal(h)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("wal: encode header: %w", err)
	}
	l.headerJSON = payload
	if err := l.append(recHeader, payload); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// openSegment creates segment seg and makes it current, fsyncing the
// directory so the new name survives a crash. Callers hold l.mu or own
// the log exclusively.
func (l *Log) openSegment(seg int) error {
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, seg))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.w, l.seg, l.size = f, bufio.NewWriter(f), seg, 0
	l.segs = append(l.segs, segMeta{idx: seg, firstBatch: l.batches})
	syncDir(l.dir)
	return nil
}

// syncDir fsyncs a directory so renames/creates inside it are durable;
// best-effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// AppendBatch journals one accepted read batch and, under SyncAlways,
// waits until it is on stable storage. It is AppendBatchAsync followed by
// WaitDurable — concurrent callers' fsyncs coalesce via group commit.
func (l *Log) AppendBatch(batch []reader.TagRead) error {
	seq, err := l.AppendBatchAsync(batch)
	if err != nil {
		return err
	}
	return l.WaitDurable(seq)
}

// AppendBatchAsync journals one accepted read batch WITHOUT waiting for
// the fsync: the record is framed and flushed to the OS before returning
// (so a process crash loses nothing), and the returned sequence number is
// the handle to wait for machine durability via WaitDurable. Under
// SyncNever the append is already as durable as it will get and the
// sequence is 0 (WaitDurable(0) returns immediately).
//
// Splitting append from durability is what lets an ingest path accept and
// even start processing a batch while its fsync is still in flight, with
// the producer ack alone gated on the sync — the group-commit shape that
// amortizes fsync=always to near fsync=never throughput.
//
// The batch is encoded as fixed-width binary reads (appendBatch) into a
// pooled buffer that lives only until the frame is written out, so the
// journal hot path allocates nothing per batch. A read with a NaN or an
// infinite float fails the append and journals nothing.
func (l *Log) AppendBatchAsync(batch []reader.TagRead) (seq int64, err error) {
	// Encode BEFORE taking the log lock, so concurrent producers overlap
	// their encodes instead of serializing them behind mu — the contention
	// window group commit exists to exploit. Pooled buffers keep the
	// steady state allocation-free with any number of producers.
	bp := marshalPool.Get().(*[]byte)
	payload, err := appendBatch((*bp)[:0], batch)
	if err != nil {
		marshalPool.Put(bp)
		return 0, fmt.Errorf("wal: %w", err)
	}
	*bp = payload
	defer marshalPool.Put(bp)

	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(recBatch, payload); err != nil {
		return 0, err
	}
	if l.opts.Fsync != SyncAlways {
		return 0, nil
	}
	return l.gAppended, nil
}

// WaitDurable blocks until every batch append up to seq is fsynced (or
// known to have failed). The first blocked caller becomes the fsync
// leader: it syncs once and releases every waiter the sync covered —
// appends that landed while the leader was syncing are picked up by the
// next leader, so concurrent producers share fsyncs (group commit).
func (l *Log) WaitDurable(seq int64) error {
	if seq <= 0 {
		return nil
	}
	l.gmu.Lock()
	for {
		if l.gSynced >= seq {
			l.gmu.Unlock()
			return nil
		}
		if l.gErr != nil && seq <= l.gErrSeq {
			err := l.gErr
			l.gmu.Unlock()
			return err
		}
		if !l.gLeader {
			l.gLeader = true
			l.gmu.Unlock()
			l.leadFlush()
			l.gmu.Lock()
			l.gLeader = false
			l.gcond.Broadcast()
			continue
		}
		l.gcond.Wait()
	}
}

// leadFlush is the group-commit leader's one sync round: fsync everything
// appended so far. Called without gmu held (the leader flag serializes
// rounds).
func (l *Log) leadFlush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.gAppended
	if l.closed {
		// Close fsynced everything it could and advanced gSynced; anything
		// beyond that is unreachable now.
		l.recordSyncErr(target, fmt.Errorf("wal: log closed"))
		return
	}
	if err := l.w.Flush(); err != nil {
		l.recordSyncErr(target, fmt.Errorf("wal: %w", err))
		return
	}
	if err := syncFile(l.f); err != nil {
		l.recordSyncErr(target, fmt.Errorf("wal: %w", err))
		return
	}
	l.advanceSynced(target)
}

// advanceSynced marks every batch append up to target as durable and
// wakes waiters. Callers hold l.mu (or own the log exclusively).
func (l *Log) advanceSynced(target int64) {
	l.gmu.Lock()
	if target > l.gSynced {
		l.gSynced = target
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
}

// recordSyncErr fails every WaitDurable up to target. Callers hold l.mu.
func (l *Log) recordSyncErr(target int64, err error) {
	l.gmu.Lock()
	l.gErr = err
	if target > l.gErrSeq {
		l.gErrSeq = target
	}
	l.gcond.Broadcast()
	l.gmu.Unlock()
}

// AppendCheckpoint journals an engine checkpoint and truncates every
// segment made wholly redundant by it, returning how many segments were
// deleted or emptied. The checkpoint envelope carries everything recovery needs to
// stand alone — the session header (so the segment holding the original
// header record may be deleted), the serialized engine state, the total
// reads folded into that state, and uncovered: how many journaled batch
// records were NOT yet consumed into the state when it was captured.
// Recovery restores the state and replays only the last `uncovered` batch
// records — the suffix — instead of the whole history.
//
// The record becomes a segment of its own: the next index, or the current
// one if that is still empty. It is written whole to a temporary name and
// fsynced there, the current segment is sealed (fsynced and closed), the
// temporary file is renamed to its segment name, and the next segment is
// opened; opening it fsyncs the directory, which makes the rename durable
// too. A crash before the rename leaves only a stray temporary file, which
// Recover deletes, so the previous basis stands and no tail is torn; a
// crash after it leaves the whole record. Either way a checkpoint never
// shares a segment with batch records.
//
// Durability ordering makes truncation crash-safe: the checkpoint record
// is fsynced and renamed before any segment is unlinked, and the
// directory is fsynced after. A crash mid-truncation leaves stale
// pre-checkpoint segments behind, which recovery skips past once it scans
// the checkpoint.
//
// Superseded checkpoint segments are truncated to zero length on the
// spot, and a prefix segment is deleted outright once every batch it
// holds is covered by the checkpoint, i.e. the NEXT segment's first
// batch ordinal is ≤ batches-consumed. Together these bound the log's
// disk footprint and recovery's scan by the checkpoint cadence: one
// live engine blob plus the uncovered batch suffix, however old the
// session. Envelope layout (ckpt encoding):
//
//	u8 version | u64 uncovered | u64 reads | bytes headerJSON | bytes state
func (l *Log) AppendCheckpoint(uncovered, reads int64, state []byte) (truncated int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	covered := l.batches - uncovered
	if uncovered < 0 || covered < 0 {
		return 0, fmt.Errorf("wal: checkpoint uncovered %d out of range (batches %d)", uncovered, l.batches)
	}
	buf := l.ckptBuf[:0]
	buf = ckpt.AppendU8(buf, ckptVersion)
	buf = ckpt.AppendU64(buf, uint64(uncovered))
	buf = ckpt.AppendU64(buf, uint64(reads))
	buf = ckpt.AppendBytes(buf, l.headerJSON)
	buf = ckpt.AppendBytes(buf, state)
	l.ckptBuf = buf
	if len(buf) > MaxCheckpoint {
		return 0, fmt.Errorf("wal: record payload %d exceeds %d bytes", len(buf), MaxCheckpoint)
	}
	idx := l.seg
	if l.size > 0 {
		idx++
	}
	path := filepath.Join(l.dir, fmt.Sprintf(segPattern, idx))
	if err := writeRecordFile(path+tmpSuffix, recCheckpoint, buf); err != nil {
		return 0, err
	}
	if err := l.seal(); err != nil {
		os.Remove(path + tmpSuffix)
		return 0, err
	}
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		os.Remove(path + tmpSuffix)
		return 0, fmt.Errorf("wal: %w", err)
	}
	n := int64(frameLen + len(buf))
	l.bytes += n
	totalBytes.Add(n)
	// Alone in its segment, the blob is reclaimable the moment the next
	// checkpoint lands. Batches journal ahead of consumption, so a segment
	// mixing a checkpoint with later batch records would stay pinned — its
	// tail batches uncovered — for several checkpoint cycles, each cycle
	// stranding a full superseded engine blob on disk and in the recovery
	// scan.
	meta := segMeta{idx: idx, firstBatch: l.batches, ckptOnly: true}
	if idx == l.seg {
		l.segs[len(l.segs)-1] = meta // the rename replaced the empty segment
	} else {
		l.segs = append(l.segs, meta)
	}
	if err := l.openSegment(idx + 1); err != nil {
		return 0, err
	}
	// Reclaim superseded checkpoint segments in place. Deleting a middle
	// segment would leave an index gap, which recovery reads as the end of
	// the reachable log — so stale checkpoint segments are truncated to
	// zero length instead: an empty segment scans as no records, and the
	// covered-prefix sweep below unlinks the empty file once consumption
	// passes it. The new checkpoint was fsynced above (appendLocked always
	// syncs non-batch records), so a crash anywhere in this sweep leaves
	// each stale segment either intact (scanned, then superseded) or empty
	// — both recover to the same session.
	for i := range l.segs[:len(l.segs)-2] {
		if !l.segs[i].ckptOnly {
			continue
		}
		path := filepath.Join(l.dir, fmt.Sprintf(segPattern, l.segs[i].idx))
		if err := os.Truncate(path, 0); err != nil {
			return truncated, fmt.Errorf("wal: reclaim checkpoint segment: %w", err)
		}
		l.segs[i].ckptOnly = false
		truncated++
	}
	// The prefix sweep stops at the new checkpoint's own segment: it is
	// the recovery basis, deletable only by a future checkpoint.
	for len(l.segs) >= 2 && !l.segs[0].ckptOnly && l.segs[1].firstBatch <= covered {
		path := filepath.Join(l.dir, fmt.Sprintf(segPattern, l.segs[0].idx))
		if err := os.Remove(path); err != nil {
			if truncated > 0 {
				syncDir(l.dir)
			}
			return truncated, fmt.Errorf("wal: truncate: %w", err)
		}
		truncated++
		l.segs = l.segs[1:]
	}
	if truncated > 0 {
		syncDir(l.dir)
	}
	return truncated, nil
}

// AppendFinish journals the finish marker, fsynced regardless of policy:
// once it returns, recovery will rebuild this session as finished.
func (l *Log) AppendFinish() error {
	return l.append(recFinish, nil)
}

func (l *Log) append(typ byte, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(typ, payload)
}

func (l *Log) appendLocked(typ byte, payload []byte) error {
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	max := MaxRecord
	if typ == recCheckpoint {
		max = MaxCheckpoint
	}
	if len(payload) > max {
		return fmt.Errorf("wal: record payload %d exceeds %d bytes", len(payload), max)
	}
	n := int64(frameLen + len(payload))
	if l.size > 0 && l.size+n > l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	hdr := frameHeader(typ, payload)
	if _, err := l.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.w.Write(payload); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if typ == recBatch {
		// Batch fsync is the group-commit leader's job under SyncAlways
		// (sequence assigned by AppendBatchAsync) and skipped entirely
		// under SyncNever.
		if l.opts.Fsync == SyncAlways {
			l.gAppended++
		}
		l.batches++
	} else {
		// Header, finish and checkpoint records are one-time barriers:
		// always fsynced inline, which also covers every batch flushed
		// before them.
		if err := syncFile(l.f); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.advanceSynced(l.gAppended)
	}
	l.size += n
	l.bytes += n
	totalBytes.Add(n)
	return nil
}

// frameHeader builds a record's frame prefix.
func frameHeader(typ byte, payload []byte) [frameLen]byte {
	var hdr [frameLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], frameCRC(typ, payload))
	return hdr
}

// writeRecordFile writes one framed record as the whole content of a new
// file at path and fsyncs it; on failure it removes the file.
func writeRecordFile(path string, typ byte, payload []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := frameHeader(typ, payload)
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// rotate seals the current segment and opens the next.
func (l *Log) rotate() error {
	if err := l.seal(); err != nil {
		return err
	}
	return l.openSegment(l.seg + 1)
}

// seal flushes, fsyncs and closes the current segment, whatever the
// policy.
func (l *Log) seal() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncFile(l.f); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.advanceSynced(l.gAppended)
	return nil
}

// Sync flushes and fsyncs the current segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncFile(l.f); err != nil {
		return err
	}
	l.advanceSynced(l.gAppended)
	return nil
}

// Close flushes, fsyncs and closes the log. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.w != nil {
		l.w.Flush()
	}
	if l.f != nil {
		if err := syncFile(l.f); err == nil {
			// Everything appended made it down; release any group-commit
			// waiters so they don't lead-flush a closed log.
			l.advanceSynced(l.gAppended)
		}
		return l.f.Close()
	}
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Bytes reports what this process appended (recovered records are not
// counted).
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg
}

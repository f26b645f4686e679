package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/reader"
	"repro/internal/trace"
)

// fuzzSeedSegment builds one small valid segment's raw bytes for seeding.
func fuzzSeedSegment(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Create(dir, testHeader(), Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range testBatches(3, 4) {
		if err := l.AppendBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.AppendFinish(); err != nil {
		tb.Fatal(err)
	}
	l.Close()
	segs, err := SegmentFiles(dir)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzRecoverSegment: arbitrary bytes dropped in as a segment file must
// recover to a valid prefix or error — never panic, never a partial
// batch, and always idempotently: recovering the repaired log a second
// time must return the identical content with no tear.
func FuzzRecoverSegment(f *testing.F) {
	valid := fuzzSeedSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:frameLen-1])
	f.Add([]byte{})
	f.Add([]byte("not a wal segment at all"))
	f.Add(bytes.Repeat([]byte{recBatch}, 64))
	f.Add(bytes.Repeat([]byte{recTextBatch}, 64))
	// Oversized declared length.
	f.Add([]byte{recHeader, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, l, err := Recover(dir, Options{})
		if err != nil {
			// Unrecoverable (no header): fine, as long as it said so.
			return
		}
		if l != nil {
			l.Close()
		}
		if rec.Unreplayable != nil {
			// A replayed record of the retired type: the segment must be
			// left exactly as it was.
			if got, _ := os.ReadFile(filepath.Join(dir, "wal-00000001.seg")); l != nil || !bytes.Equal(got, data) {
				t.Fatalf("unreplayable log (%v) was reopened or changed", rec.Unreplayable)
			}
		}
		reads := 0
		for _, b := range rec.Batches {
			if len(b) == 0 {
				t.Fatal("recovered an empty batch entry")
			}
			reads += len(b)
		}
		if reads != rec.Reads {
			t.Fatalf("Reads=%d but batches hold %d", rec.Reads, reads)
		}
		// Idempotence: the repaired log must recover byte-identically and
		// clean.
		rec2, l2, err := Recover(dir, Options{})
		if err != nil {
			t.Fatalf("repaired log unrecoverable: %v", err)
		}
		if l2 != nil {
			l2.Close()
		}
		if rec2.Torn {
			t.Fatalf("repaired log still torn: %v", rec2.TornCause)
		}
		if !reflect.DeepEqual(rec2.Batches, rec.Batches) || rec2.Finished != rec.Finished ||
			!reflect.DeepEqual(rec2.Header, rec.Header) {
			t.Fatal("second recovery diverged from first")
		}
	})
}

// FuzzRecoverTamperedLog: start from a known valid log, then truncate at
// an arbitrary point and/or flip one byte. Recovery must never panic and
// must return an exact batch-granular prefix of the original log — the
// no-partial-batch guarantee under every possible tear.
func FuzzRecoverTamperedLog(f *testing.F) {
	valid := fuzzSeedSegment(f)
	f.Add(uint16(len(valid)), uint16(0xffff), byte(0))
	f.Add(uint16(len(valid)/2), uint16(0xffff), byte(0))
	f.Add(uint16(len(valid)), uint16(10), byte(0x01))
	f.Add(uint16(3), uint16(0), byte(0x80))

	original := testBatches(3, 4)
	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipBit byte) {
		data := bytes.Clone(valid)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if int(flipAt) < len(data) && flipBit != 0 {
			data[flipAt] ^= flipBit
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, l, err := Recover(dir, Options{})
		if err != nil {
			return // header destroyed: unrecoverable, reported cleanly
		}
		if l != nil {
			l.Close()
		}
		if len(rec.Batches) > len(original) {
			t.Fatalf("recovered %d batches from a log of %d", len(rec.Batches), len(original))
		}
		for i, b := range rec.Batches {
			if !reflect.DeepEqual(b, original[i]) {
				// A flipped byte can only kill its record, never morph it
				// into a CRC-valid different batch; a mismatch here means a
				// partial or corrupted batch leaked through.
				t.Fatalf("batch %d is not a verbatim prefix batch", i)
			}
		}
	})
}

// TestFuzzSeedsRoundTrip pins the seed corpus itself: the untouched seed
// segment must recover finished, untorn, with every batch intact — so the
// fuzz targets start from a known-good baseline.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	data := fuzzSeedSegment(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || !rec.Finished || len(rec.Batches) != 3 {
		t.Errorf("seed segment recovered torn=%v finished=%v batches=%d", rec.Torn, rec.Finished, len(rec.Batches))
	}
	if !reflect.DeepEqual(rec.Header, testHeader()) {
		t.Error("seed header mangled")
	}
}

// reframe returns data with the record at ri replaced by a record of the
// same type around payload, its length and CRC recomputed, so the new
// payload passes the frame checks and reaches the decoder.
func reframe(data []byte, ri RecordInfo, payload []byte) []byte {
	hdr := frameHeader(data[ri.Offset], payload)
	out := append([]byte(nil), data[:ri.Offset]...)
	out = append(out, hdr[:]...)
	out = append(out, payload...)
	return append(out, data[ri.End:]...)
}

// batchLoc locates one batch record of a log image.
type batchLoc struct {
	name string
	ri   RecordInfo
}

// fuzzSeedLog builds the live log FuzzRecoverReframedBatch starts from and
// returns its image (segment name → bytes), the segment names in order
// and its batch records in append order. The first segment holds the
// header and six batches, of which the checkpoint in the second covers
// four and leaves two uncovered, so the segment survives holding both
// kinds; three more batches follow in the third.
func fuzzSeedLog(tb testing.TB) (map[string][]byte, []string, []batchLoc) {
	tb.Helper()
	dir := tb.TempDir()
	l, err := Create(dir, testHeader(), Options{Fsync: SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	batches := testBatches(9, 3)
	for i, b := range batches {
		if i == 6 {
			if _, err := l.AppendCheckpoint(2, 12, []byte("engine state")); err != nil {
				tb.Fatal(err)
			}
		}
		if err := l.AppendBatch(b); err != nil {
			tb.Fatal(err)
		}
	}
	l.Close()
	segs, err := SegmentFiles(dir)
	if err != nil {
		tb.Fatal(err)
	}
	image := map[string][]byte{}
	var names []string
	var locs []batchLoc
	for _, path := range segs {
		name := filepath.Base(path)
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		infos, err := InspectSegment(path)
		if err != nil {
			tb.Fatal(err)
		}
		for _, ri := range infos {
			if ri.Type == recBatch {
				locs = append(locs, batchLoc{name, ri})
			}
		}
		image[name] = data
		names = append(names, name)
	}
	if len(names) != 3 || len(locs) != len(batches) {
		tb.Fatalf("seed log has %d segments and %d batch records, want 3 and %d", len(names), len(locs), len(batches))
	}
	return image, names, locs
}

// eagerRecovery is what recoverEager finds in a log image.
type eagerRecovery struct {
	failed          bool // no basis, or the basis misses uncovered records
	unreplayable    bool // a replayed record is of the retired type
	batches         [][]reader.TagRead
	checkpoint      []byte
	checkpointReads int64
	torn            bool
	tornSeg         int
	tornOff         int64
}

// recoverEager is the reference Recover's lazy decode is held to: the
// scan Recover ran before it deferred batch decoding, which decodes every
// batch record as it reaches it. A record that fails to decode stays
// pending as a marker, superseded like any other record when a later
// checkpoint covers it; once the scan is over, the first marker still
// pending tears the log, and the scan reruns up to that record — unless a
// pending record of the retired type comes first, which leaves the log
// unreplayable.
func recoverEager(segs [][]byte) eagerRecovery {
	type entry struct {
		batch   []reader.TagRead
		bad     bool
		retired bool
		seg     int
		off     int64
	}
	stopSeg, stopOff := len(segs), int64(0)
	for {
		r := eagerRecovery{tornSeg: -1}
		var pending []entry
		sawBasis, finished, first := false, false, true
		deficit := int64(0)
	scan:
		for si, data := range segs {
			for off := int64(0); off < int64(len(data)); {
				tear := func() { r.torn, r.tornSeg, r.tornOff = true, si, off }
				if si == stopSeg && off == stopOff {
					tear()
					break scan
				}
				typ, payload, n, err := decodeFrame(data[off:])
				if err != nil || finished {
					tear()
					break scan
				}
				switch typ {
				case recHeader:
					var h trace.Header
					if !first || json.Unmarshal(payload, &h) != nil {
						tear()
						break scan
					}
					sawBasis = true
				case recBatch:
					b, err := decodeBatch(payload)
					pending = append(pending, entry{batch: b, bad: err != nil, seg: si, off: off})
				case recTextBatch:
					pending = append(pending, entry{retired: true, seg: si, off: off})
				case recCheckpoint:
					uncovered, reads, hj, state, err := parseCheckpoint(payload)
					var h trace.Header
					if err != nil || json.Unmarshal(hj, &h) != nil {
						tear()
						break scan
					}
					r.checkpoint, r.checkpointReads = state, reads
					keep := min(uncovered, int64(len(pending)))
					deficit = uncovered - keep
					pending = pending[int64(len(pending))-keep:]
					sawBasis = true
				case recFinish:
					if !sawBasis {
						tear()
						break scan
					}
					finished = true
				}
				first = false
				off += n
			}
		}
		if !sawBasis {
			return eagerRecovery{failed: true}
		}
		if i := slices.IndexFunc(pending, func(e entry) bool { return e.bad || e.retired }); i >= 0 {
			if pending[i].retired {
				return eagerRecovery{unreplayable: true}
			}
			stopSeg, stopOff = pending[i].seg, pending[i].off
			continue
		}
		if deficit > 0 {
			return eagerRecovery{failed: true}
		}
		r.batches = make([][]reader.TagRead, 0, len(pending))
		for _, e := range pending {
			r.batches = append(r.batches, e.batch)
		}
		return r
	}
}

// FuzzRecoverReframedBatch replaces one batch record's payload of a
// checkpointed multi-segment log with the fuzzer's bytes, recomputing the
// record's CRC so the bytes reach the batch decoder rather than the frame
// checks; with retired set, the record also becomes one of the retired
// NDJSON type. Recover must never panic, must return only whole batches
// as journaled, and must agree with the eager reference scan on the
// batches, the checkpoint basis, the tear, whether the log is
// unreplayable, and the repaired segment bytes.
func FuzzRecoverReframedBatch(f *testing.F) {
	image, names, locs := fuzzSeedLog(f)
	other, err := appendBatch(nil, testBatches(12, 2)[11])
	if err != nil {
		f.Fatal(err)
	}
	text, err := trace.MarshalReads(testBatches(9, 3)[1])
	if err != nil {
		f.Fatal(err)
	}
	for k := range locs {
		f.Add(uint8(k), false, []byte("{not a read}\n"))
	}
	f.Add(uint8(1), false, other)
	f.Add(uint8(5), false, []byte{})
	f.Add(uint8(7), false, []byte("\n \n"))
	f.Add(uint8(1), true, text) // covered
	f.Add(uint8(5), true, text) // uncovered

	original := testBatches(9, 3)
	f.Fuzz(func(t *testing.T, k uint8, retired bool, payload []byte) {
		if len(payload) > 1<<16 {
			return
		}
		loc := locs[int(k)%len(locs)]
		img := maps.Clone(image)
		if retired {
			img[loc.name] = bytes.Clone(img[loc.name])
			img[loc.name][loc.ri.Offset] = recTextBatch
		}
		img[loc.name] = reframe(img[loc.name], loc.ri, payload)
		segs := make([][]byte, len(names))
		for i, name := range names {
			segs[i] = img[name]
		}
		want := recoverEager(segs)

		dir := t.TempDir()
		for name, data := range img {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, l, err := Recover(dir, Options{})
		if (err != nil) != want.failed {
			t.Fatalf("Recover error %v, reference failed=%v", err, want.failed)
		}
		if err != nil {
			return
		}
		if l != nil {
			l.Close()
		}
		if (rec.Unreplayable != nil) != want.unreplayable || (want.unreplayable && l != nil) {
			t.Fatalf("Unreplayable %v, log reopened %v; reference unreplayable=%v", rec.Unreplayable, l != nil, want.unreplayable)
		}
		fuzzed, ferr := decodeBatch(payload)
		for i, b := range rec.Batches {
			if !slices.ContainsFunc(original, func(o []reader.TagRead) bool { return reflect.DeepEqual(b, o) }) &&
				(ferr != nil || !reflect.DeepEqual(b, fuzzed)) {
				t.Fatalf("batch %d is neither a journaled batch nor the fuzzed record's whole decode", i)
			}
		}
		if !reflect.DeepEqual(rec.Batches, want.batches) {
			t.Fatalf("recovered %d batches, reference %d", len(rec.Batches), len(want.batches))
		}
		if !bytes.Equal(rec.Checkpoint, want.checkpoint) || rec.CheckpointReads != want.checkpointReads {
			t.Fatalf("basis %q/%d, reference %q/%d", rec.Checkpoint, rec.CheckpointReads, want.checkpoint, want.checkpointReads)
		}
		if rec.Torn != want.torn {
			t.Fatalf("torn=%v (%v), reference torn=%v", rec.Torn, rec.TornCause, want.torn)
		}
		if want.torn {
			keep := want.tornSeg + 1
			img[names[want.tornSeg]] = img[names[want.tornSeg]][:want.tornOff]
			if want.tornOff == 0 && want.tornSeg > 0 {
				keep = want.tornSeg
			}
			for _, name := range names[keep:] {
				delete(img, name)
			}
		}
		if got := readDir(t, dir); !maps.EqualFunc(got, img, bytes.Equal) {
			t.Fatalf("repaired log differs from the reference's repair")
		}
	})
}

// FuzzBatchCodec holds the batch record codec to two properties. Decoding
// arbitrary bytes never panics and either errors or yields reads that
// re-encode to exactly those bytes. And the same bytes, cut into 52-byte
// reads — EPC, three float bit patterns, two int64s — encode and decode
// back bit for bit (-0 and every NaN-free bit pattern included), while a
// read with a non-finite float is refused.
func FuzzBatchCodec(f *testing.F) {
	valid, err := appendBatch(nil, testBatches(1, 3)[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 2*52))
	f.Add(append(bytes.Clone(valid[:minReadLen-2]), 0x80, 0x00, 0x00)) // non-minimal varint
	f.Add(append(bytes.Clone(valid[:minReadLen-1]), 0x80))             // overrun varint

	f.Fuzz(func(t *testing.T, data []byte) {
		if reads, err := decodeBatch(data); err == nil {
			back, err := appendBatch(nil, reads)
			if err != nil || !bytes.Equal(back, data) {
				t.Fatalf("decoded %d reads that re-encode to %d bytes (err %v), not the %d decoded", len(reads), len(back), err, len(data))
			}
		}

		const stride = 12 + 5*8
		var reads []reader.TagRead
		finiteOnly := true
		for p := data; len(p) >= stride; p = p[stride:] {
			var r reader.TagRead
			copy(r.EPC[:], p)
			r.Time = math.Float64frombits(binary.LittleEndian.Uint64(p[12:]))
			r.Phase = math.Float64frombits(binary.LittleEndian.Uint64(p[20:]))
			r.RSSI = math.Float64frombits(binary.LittleEndian.Uint64(p[28:]))
			r.Channel = int(binary.LittleEndian.Uint64(p[36:]))
			r.Reader = int(binary.LittleEndian.Uint64(p[44:]))
			finiteOnly = finiteOnly && finite(r.Time) && finite(r.Phase) && finite(r.RSSI)
			reads = append(reads, r)
		}
		enc, err := appendBatch(nil, reads)
		if !finiteOnly {
			if err == nil {
				t.Fatal("a read with a non-finite float was encoded")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBatch(enc)
		if err != nil {
			t.Fatalf("decoding an encoded batch: %v", err)
		}
		if len(got) != len(reads) {
			t.Fatalf("decoded %d reads, encoded %d", len(got), len(reads))
		}
		for i, r := range reads {
			g := got[i]
			if g.EPC != r.EPC || g.Channel != r.Channel || g.Reader != r.Reader ||
				math.Float64bits(g.Time) != math.Float64bits(r.Time) ||
				math.Float64bits(g.Phase) != math.Float64bits(r.Phase) ||
				math.Float64bits(g.RSSI) != math.Float64bits(r.RSSI) {
				t.Fatalf("read %d: decoded %+v, encoded %+v", i, g, r)
			}
		}
	})
}

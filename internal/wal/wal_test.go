package wal

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/epcgen2"
	"repro/internal/reader"
	"repro/internal/trace"
)

// testHeader and testBatches build a deterministic session worth of
// journal content.
func testHeader() trace.Header {
	return trace.Header{
		Scenario: "aisle", Seed: 7, PerpDist: 0.3, Speed: 0.15,
		Readers: []trace.ReaderMeta{
			{ID: 0, XMin: 0, XMax: 2},
			{ID: 1, XMin: 1.5, XMax: 4, ClockOffset: 2.5},
		},
	}
}

func testBatches(n, per int) [][]reader.TagRead {
	out := make([][]reader.TagRead, n)
	for i := range out {
		batch := make([]reader.TagRead, per)
		for j := range batch {
			batch[j] = reader.TagRead{
				EPC:     epcgen2.NewEPC(uint64(i*per + j + 1)),
				Time:    float64(i) + float64(j)/100,
				Phase:   1.25,
				RSSI:    -60.5,
				Channel: 6,
				Reader:  j % 2,
			}
		}
		out[i] = batch
	}
	return out
}

func writeLog(t *testing.T, dir string, opts Options, batches [][]reader.TagRead, finish bool) {
	t.Helper()
	l, err := Create(dir, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if finish {
		if err := l.AppendFinish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func recoverDir(t *testing.T, dir string) *Recovered {
	t.Helper()
	rec, l, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l != nil {
		l.Close()
	}
	return rec
}

// TestRoundTrip: header, batches and the finish marker must survive a
// write → recover cycle exactly, in order.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(5, 7)
	writeLog(t, dir, Options{Fsync: SyncAlways}, batches, true)

	rec := recoverDir(t, dir)
	if !reflect.DeepEqual(rec.Header, testHeader()) {
		t.Errorf("header changed: %+v", rec.Header)
	}
	if !rec.Finished || rec.Torn {
		t.Errorf("finished=%v torn=%v, want finished clean", rec.Finished, rec.Torn)
	}
	if !reflect.DeepEqual(rec.Batches, batches) {
		t.Errorf("batches changed:\n got %+v\nwant %+v", rec.Batches, batches)
	}
	if rec.Reads != 35 {
		t.Errorf("reads = %d, want 35", rec.Reads)
	}
}

// TestLiveLogReopensForAppend: recovering an unfinished log returns it
// open for append, and the appended records survive the next recovery.
func TestLiveLogReopensForAppend(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(4, 3)
	writeLog(t, dir, Options{Fsync: SyncNever}, batches[:2], false)

	rec, l, err := Recover(dir, Options{Fsync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Finished || l == nil {
		t.Fatalf("live log: finished=%v log=%v", rec.Finished, l)
	}
	for _, b := range batches[2:] {
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendFinish(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	rec2 := recoverDir(t, dir)
	if !rec2.Finished {
		t.Error("finish marker lost")
	}
	if !reflect.DeepEqual(rec2.Batches, batches) {
		t.Errorf("appended batches lost: got %d, want %d", len(rec2.Batches), len(batches))
	}
}

// TestSegmentRotation: a small segment bound must rotate through several
// files, records never split across segments, and recovery must stitch
// all segments back in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(20, 8)
	writeLog(t, dir, Options{SegmentBytes: 2048, Fsync: SyncNever}, batches, true)

	segs, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments with a 2 KiB bound", len(segs))
	}
	for _, seg := range segs {
		if st, _ := os.Stat(seg); st.Size() > 2048 {
			t.Errorf("%s is %d bytes, exceeds the segment bound", seg, st.Size())
		}
		// Every segment must decode standalone up to its end: records do
		// not straddle segment boundaries.
		infos, err := InspectSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) == 0 {
			t.Errorf("%s holds no complete record", seg)
		}
		st, _ := os.Stat(seg)
		if last := infos[len(infos)-1].End; last != st.Size() {
			t.Errorf("%s: records end at %d, file is %d", seg, last, st.Size())
		}
	}

	rec := recoverDir(t, dir)
	if !reflect.DeepEqual(rec.Batches, batches) || !rec.Finished {
		t.Errorf("rotation broke recovery: %d batches, finished=%v", len(rec.Batches), rec.Finished)
	}
	if rec.Segments != len(segs) {
		t.Errorf("recovered %d segments, want %d", rec.Segments, len(segs))
	}
}

// TestTornTailTruncated: cutting the last record mid-payload must recover
// the full prefix, report the tear, physically truncate the file, and
// leave a log a second recovery reads back clean and identical.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(6, 5)
	writeLog(t, dir, Options{}, batches, false)

	segs, _ := SegmentFiles(dir)
	infos, err := InspectSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	last := infos[len(infos)-1]
	cut := last.Offset + (last.End-last.Offset)/2
	if err := os.Truncate(segs[0], cut); err != nil {
		t.Fatal(err)
	}

	rec, l, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l == nil {
		t.Fatal("torn live log did not reopen")
	}
	if !rec.Torn || rec.TornCause == nil {
		t.Error("tear not reported")
	}
	if !reflect.DeepEqual(rec.Batches, batches[:5]) {
		t.Errorf("recovered %d batches, want the 5 intact ones", len(rec.Batches))
	}
	if st, _ := os.Stat(segs[0]); st.Size() != last.Offset {
		t.Errorf("file %d bytes after repair, want truncated to %d", st.Size(), last.Offset)
	}
	// The reopened log must append cleanly after the repair point.
	if err := l.AppendBatch(batches[5]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	rec2 := recoverDir(t, dir)
	if rec2.Torn {
		t.Error("second recovery still torn")
	}
	if !reflect.DeepEqual(rec2.Batches, batches) {
		t.Errorf("append-after-repair lost data: %d batches", len(rec2.Batches))
	}
}

// TestCorruptCRCStopsCleanly: a bit flip inside an interior record must
// truncate everything from that record on — never panic, never a partial
// batch.
func TestCorruptCRCStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(6, 5)
	writeLog(t, dir, Options{}, batches, true)

	segs, _ := SegmentFiles(dir)
	infos, _ := InspectSegment(segs[0])
	victim := infos[3] // third batch record (0 is the header)
	data, _ := os.ReadFile(segs[0])
	data[victim.Offset+frameLen+2] ^= 0x10
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, l, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l != nil {
		l.Close()
	}
	if !rec.Torn {
		t.Error("bit flip not detected")
	}
	if rec.Finished {
		t.Error("finish marker survived a mid-log tear")
	}
	if !reflect.DeepEqual(rec.Batches, batches[:2]) {
		t.Errorf("recovered %d batches, want the 2 before the flip", len(rec.Batches))
	}
	for _, b := range rec.Batches {
		if len(b) != 5 {
			t.Errorf("partial batch of %d reads surfaced", len(b))
		}
	}
}

// TestTornAcrossSegments: a tear in segment k must drop segment k's tail
// AND every later segment, so the repaired log is a pure prefix.
func TestTornAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(20, 8)
	writeLog(t, dir, Options{SegmentBytes: 2048, Fsync: SyncNever}, batches, true)
	segs, _ := SegmentFiles(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	// Count batches wholly inside segments before the victim.
	prefix := 0
	for _, seg := range segs[:1] {
		infos, _ := InspectSegment(seg)
		for _, ri := range infos {
			if ri.Type == recBatch {
				prefix++
			}
		}
	}
	infos, _ := InspectSegment(segs[1])
	if err := os.Truncate(segs[1], infos[0].Offset+3); err != nil {
		t.Fatal(err)
	}

	rec, l, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l != nil {
		l.Close()
	}
	if !rec.Torn {
		t.Error("cross-segment tear not reported")
	}
	if len(rec.Batches) != prefix {
		t.Errorf("recovered %d batches, want %d from the intact segment", len(rec.Batches), prefix)
	}
	left, _ := SegmentFiles(dir)
	if len(left) >= len(segs) {
		t.Errorf("later segments survived the repair: %d of %d", len(left), len(segs))
	}
}

// TestNoHeaderUnrecoverable: an empty or headerless log is ErrNoHeader /
// ErrNoLog, not a phantom session.
func TestNoHeaderUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Recover(dir, Options{}); !errors.Is(err, ErrNoLog) {
		t.Errorf("empty dir: err = %v, want ErrNoLog", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir, Options{}); !errors.Is(err, ErrNoHeader) {
		t.Errorf("garbage log: err = %v, want ErrNoHeader", err)
	}
}

// TestStraySegmentNamesIgnored: files that merely start with a segment
// name (backups, editor droppings) must not shadow or join the real
// segment list — Sscanf ignores trailing characters, so the listing must
// round-trip names exactly.
func TestStraySegmentNamesIgnored(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(3, 4)
	writeLog(t, dir, Options{}, batches, true)
	segs, _ := SegmentFiles(dir)
	real := segs[0]
	// A stale copy whose name sorts after the real segment, plus other
	// near-miss names.
	for _, stray := range []string{"wal-00000001.seg.bak", "wal-1.seg", "wal-00000002.seg.tmp", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs2, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs2) != 1 || segs2[0] != real {
		t.Fatalf("stray files changed the segment list: %v", segs2)
	}
	rec := recoverDir(t, dir)
	if !reflect.DeepEqual(rec.Batches, batches) || !rec.Finished || rec.Torn {
		t.Errorf("stray files corrupted recovery: batches=%d finished=%v torn=%v",
			len(rec.Batches), rec.Finished, rec.Torn)
	}
}

// TestCreateRefusesExistingLog: Create must not silently clobber a
// previous session's journal.
func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Options{}, testBatches(1, 2), false)
	if _, err := Create(dir, testHeader(), Options{}); err == nil {
		t.Error("Create over an existing log succeeded")
	}
}

// TestCreateCleansUpOnError: a header record that cannot be journaled
// (its JSON exceeds MaxRecord) fails Create and leaves nothing behind —
// not the directory Create made, not an empty first segment — while a
// failed Create in a directory that already existed keeps the directory
// and removes only the segment it opened.
func TestCreateCleansUpOnError(t *testing.T) {
	h := testHeader()
	h.Scenario = strings.Repeat("x", MaxRecord)
	dir := filepath.Join(t.TempDir(), "session")
	if _, err := Create(dir, h, Options{}); err == nil {
		t.Fatal("Create journaled a header larger than MaxRecord")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("failed Create left %s behind (stat: %v)", dir, err)
	}
	existing := t.TempDir()
	if _, err := Create(existing, h, Options{}); err == nil {
		t.Fatal("Create journaled a header larger than MaxRecord")
	}
	if entries, err := os.ReadDir(existing); err != nil || len(entries) != 0 {
		t.Errorf("failed Create in an existing directory left %d entries (err %v)", len(entries), err)
	}
}

// TestRecordAfterFinishIsTorn: bytes appended past the finish marker are
// corruption and must be truncated away, keeping the finished state.
func TestRecordAfterFinishIsTorn(t *testing.T) {
	dir := t.TempDir()
	writeLog(t, dir, Options{}, testBatches(2, 3), true)
	segs, _ := SegmentFiles(dir)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A structurally valid batch record after finish: still torn.
	payload, _ := appendBatch(nil, testBatches(1, 1)[0])
	var hdr [frameLen]byte
	hdr[0] = recBatch
	hdr[1] = byte(len(payload))
	crc := frameCRC(recBatch, payload)
	hdr[5], hdr[6], hdr[7], hdr[8] = byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24)
	f.Write(hdr[:])
	f.Write(payload)
	f.Close()

	rec := recoverDir(t, dir)
	if !rec.Torn || !rec.Finished {
		t.Errorf("torn=%v finished=%v, want torn and finished", rec.Torn, rec.Finished)
	}
	if len(rec.Batches) != 2 {
		t.Errorf("post-finish record leaked into recovery: %d batches", len(rec.Batches))
	}
}

// TestParsePolicy covers the -fsync flag surface.
func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "never": SyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("bogus policy accepted")
	}
}

// TestEmptyBatchPayloadKept: a zero-read batch record recovers to an
// empty slice entry — checkpoint records count uncovered batch RECORDS,
// so recovery must preserve the record count exactly, reads or not.
func TestEmptyBatchPayloadKept(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(testBatches(1, 2)[0]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	rec := recoverDir(t, dir)
	if len(rec.Batches) != 2 || rec.Reads != 2 {
		t.Errorf("batches=%d reads=%d, want 2/2", len(rec.Batches), rec.Reads)
	}
	if len(rec.Batches[0]) != 0 || len(rec.Batches[1]) != 2 {
		t.Errorf("batch sizes %d/%d, want 0/2", len(rec.Batches[0]), len(rec.Batches[1]))
	}
}

// TestBatchPayloadLayout: a batch record's payload is its reads back to
// back, each the 12 EPC bytes, Time, Phase and RSSI as little-endian
// IEEE-754 bits, then Channel and Reader as zigzag varints — 38 bytes per
// read for small channel and reader numbers. Built by hand here, so the
// on-disk layout cannot drift with the codec.
func TestBatchPayloadLayout(t *testing.T) {
	dir := t.TempDir()
	batch := testBatches(1, 3)[0]
	batch[1].Phase = math.Copysign(0, -1)
	batch[2].Channel, batch[2].Reader = -3, 200
	l, err := Create(dir, testHeader(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, _ := SegmentFiles(dir)
	infos, _ := InspectSegment(segs[0])
	data, _ := os.ReadFile(segs[0])
	if infos[1].Type != 5 {
		t.Fatalf("batch record type %d, want 5", infos[1].Type)
	}
	got := data[infos[1].Offset+frameLen : infos[1].End]
	var want []byte
	for _, r := range batch {
		want = append(want, r.EPC[:]...)
		for _, f := range []float64{r.Time, r.Phase, r.RSSI} {
			bits := math.Float64bits(f)
			for i := range 8 {
				want = append(want, byte(bits>>(8*i)))
			}
		}
		for _, v := range []int{r.Channel, r.Reader} {
			zz := uint64(v<<1) ^ uint64(v>>63)
			for ; zz >= 0x80; zz >>= 7 {
				want = append(want, byte(zz)|0x80)
			}
			want = append(want, byte(zz))
		}
	}
	if !bytes.Equal(got, want) {
		t.Errorf("payload differs from the documented layout:\n got %x\nwant %x", got, want)
	}
	if len(got) != 2*38+39 {
		t.Errorf("payload is %d bytes, want 38 for each small read and 39 for the one with reader 200", len(got))
	}
	rec := recoverDir(t, dir)
	if len(rec.Batches) != 1 || !math.Signbit(rec.Batches[0][1].Phase) || !reflect.DeepEqual(rec.Batches[0], batch) {
		t.Errorf("recovered %+v, want %+v with phase -0 kept", rec.Batches, batch)
	}
}

// TestAppendBatchRefusesNonFinite: a read with a NaN or an infinite float
// fails the append and journals nothing, and the log stays usable.
func TestAppendBatchRefusesNonFinite(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(2, 3)
	writeLog(t, dir, Options{}, batches[:1], false)
	rec, l, err := Recover(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := slices.Clone(batches[1])
		b[2].RSSI = bad
		if err := l.AppendBatch(b); err == nil || !strings.Contains(err.Error(), "read 2") {
			t.Errorf("AppendBatch with RSSI %v: err %v, want one naming read 2", bad, err)
		}
	}
	if !maps.EqualFunc(readDir(t, dir), before, bytes.Equal) {
		t.Error("a refused batch reached the log")
	}
	if err := l.AppendBatch(batches[1]); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if rec = recoverDir(t, dir); !reflect.DeepEqual(rec.Batches, batches) {
		t.Errorf("recovered %d batches, want the 2 finite ones", len(rec.Batches))
	}
}

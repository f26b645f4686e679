package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/deploy"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// crashScene is one workload the crash-injection harness drives: a
// recorded read stream plus the header and config a daemon session would
// run it with.
type crashScene struct {
	name     string
	header   trace.Header
	reads    []reader.TagRead
	cfg      stpp.Config
	segBytes int64 // WAL segment bound; 0 = default (single segment)
}

func crashScenes(t *testing.T) []crashScene {
	t.Helper()
	// Single reader: the paper's population scan.
	pop, err := scenario.Population(5, true, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	popReads, err := pop.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Two-reader warehouse aisle.
	ao := scenario.DefaultAisleOpts(12)
	ao.Tags = 5
	aisle, err := scenario.WarehouseAisle(ao)
	if err != nil {
		t.Fatal(err)
	}
	aisleReads, err := aisle.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Multi-portal airport tunnel, with a small segment bound so the WAL
	// rotates and crash points land in every segment.
	po := scenario.DefaultPortalsOpts(3, 13)
	po.Portals = 2
	portals, err := scenario.AirportPortals(po)
	if err != nil {
		t.Fatal(err)
	}
	portalReads, err := portals.Run()
	if err != nil {
		t.Fatal(err)
	}
	return []crashScene{
		{
			name:   "single-reader",
			header: trace.Header{Scenario: "population", Seed: 11, PerpDist: pop.PerpDist, Speed: pop.Speed},
			reads:  popReads,
			cfg:    pop.STPPConfig(),
		},
		{
			name:   "warehouse-aisle",
			header: trace.Header{Scenario: "aisle", Seed: 12, Readers: aisle.ReaderMetas()},
			reads:  aisleReads,
			cfg:    aisle.Readers[0].Scene.STPPConfig(),
		},
		{
			name:     "airport-portals",
			header:   trace.Header{Scenario: "airport-portals", Seed: 13, Readers: portals.ReaderMetas()},
			reads:    portalReads,
			cfg:      portals.Readers[0].Scene.STPPConfig(),
			segBytes: 256 << 10,
		},
	}
}

// chunkReads splits reads into n near-equal batches.
func chunkReads(reads []reader.TagRead, n int) [][]reader.TagRead {
	per := (len(reads) + n - 1) / n
	var out [][]reader.TagRead
	for start := 0; start < len(reads); start += per {
		out = append(out, reads[start:min(start+per, len(reads))])
	}
	return out
}

// snapOrders flattens a snapshot's global orders to comparable strings.
func snapOrders(snap *Snapshot) ([]string, []string) {
	return trace.EncodeEPCs(snap.Result.XOrder), trace.EncodeEPCs(snap.Result.YOrder)
}

// offlinePrefix memoizes the offline replay of the first k batches — the
// ground truth every recovery must reproduce byte-identically.
type offlinePrefix struct {
	cs      crashScene
	batches [][]reader.TagRead
	cache   map[int][2][]string
}

func (o *offlinePrefix) orders(t *testing.T, k int) ([]string, []string) {
	t.Helper()
	if got, ok := o.cache[k]; ok {
		return got[0], got[1]
	}
	se, err := deploy.NewSharded(deploy.FromHeader(o.cs.header, o.cs.cfg, false, false), deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var reads []reader.TagRead
	for _, b := range o.batches[:k] {
		reads = append(reads, b...)
	}
	res, err := se.Localize(reads)
	if err != nil {
		t.Fatalf("offline replay of %d batches: %v", k, err)
	}
	x, y := trace.EncodeEPCs(res.XOrder), trace.EncodeEPCs(res.YOrder)
	o.cache[k] = [2][]string{x, y}
	return x, y
}

// walRecord locates one record globally: its segment index and bounds.
type walRecord struct {
	seg  int
	info wal.RecordInfo
}

// walRecords enumerates every record of a session's (possibly
// multi-segment) log in append order.
func walRecords(t *testing.T, segs []string) []walRecord {
	t.Helper()
	var out []walRecord
	for si, path := range segs {
		infos, err := wal.InspectSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range infos {
			out = append(out, walRecord{seg: si, info: ri})
		}
	}
	return out
}

// copyTruncated materializes the crash image: segments before cutSeg are
// copied whole, cutSeg is cut at cutOff, later segments never made it to
// disk.
func copyTruncated(t *testing.T, segs []string, dstDir string, cutSeg int, cutOff int64) {
	t.Helper()
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for si := 0; si <= cutSeg && si < len(segs); si++ {
		data, err := os.ReadFile(segs[si])
		if err != nil {
			t.Fatal(err)
		}
		if si == cutSeg {
			data = data[:cutOff]
		}
		if err := os.WriteFile(filepath.Join(dstDir, filepath.Base(segs[si])), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFullWAL runs one complete durable session and returns its WAL
// directory, segment list and record map. The returned batch slice is
// exactly what was journaled, in order.
func writeFullWAL(t *testing.T, cs crashScene, nBatches int) (batches [][]reader.TagRead, segs []string, recs []walRecord) {
	t.Helper()
	dataDir := t.TempDir()
	srv := newTestServer(t, Options{
		Config:       cs.cfg,
		DataDir:      dataDir,
		Fsync:        wal.SyncNever,
		SegmentBytes: cs.segBytes,
	})
	sess, err := srv.CreateSession(cs.header)
	if err != nil {
		t.Fatal(err)
	}
	batches = chunkReads(cs.reads, nBatches)
	for _, b := range batches {
		if err := sess.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
	segs, err = wal.SegmentFiles(filepath.Join(dataDir, sess.ID))
	if err != nil {
		t.Fatal(err)
	}
	return batches, segs, walRecords(t, segs)
}

// bootRecovered boots a fresh server over one crash image and returns it
// plus the single recovered session (nil if recovery skipped the log).
func bootRecovered(t *testing.T, cs crashScene, dataDir string) (*Server, *Session) {
	t.Helper()
	srv, err := New(Options{
		Config:       cs.cfg,
		DataDir:      dataDir,
		Fsync:        wal.SyncNever,
		SegmentBytes: cs.segBytes,
	})
	if err != nil {
		t.Fatalf("boot on crash image: %v", err)
	}
	sess, _ := srv.Session("s000001")
	return srv, sess
}

// TestCrashInjectionRecovery is the durability proof: for every record
// boundary and a set of mid-record byte offsets of a session's WAL — the
// exact states a crash can leave on disk — restarting the server over the
// truncated log must rebuild a session whose final order is
// byte-identical to the offline replay of the journaled prefix. Boundary
// crashes additionally re-ingest the missing tail after recovery and must
// land on the full offline replay: a restarted daemon continues a live
// session without losing or corrupting a single read.
func TestCrashInjectionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-injection sweep in -short mode")
	}
	for _, cs := range crashScenes(t) {
		t.Run(cs.name, func(t *testing.T) {
			batches, segs, recs := writeFullWAL(t, cs, 5)
			if cs.segBytes > 0 && len(segs) < 2 {
				t.Fatalf("segment bound %d produced %d segments; crash points no longer span a rotation", cs.segBytes, len(segs))
			}
			offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}

			// batchesBefore counts batch records wholly before (seg, off).
			batchesBefore := func(seg int, off int64) (k int, finished bool) {
				for _, r := range recs {
					if r.seg > seg || (r.seg == seg && r.info.End > off) {
						break
					}
					switch r.info.Type {
					case 5: // batch
						k++
					case 3: // finish
						finished = true
					}
				}
				return k, finished
			}

			// Crash points: the start of the log, then for every record one
			// cut just inside it, one mid-payload, and its end boundary.
			type cut struct {
				seg      int
				off      int64
				boundary bool
			}
			var cuts []cut
			cuts = append(cuts, cut{0, 0, false})
			for _, r := range recs {
				mid := r.info.Offset + (r.info.End-r.info.Offset)/2
				cuts = append(cuts,
					cut{r.seg, r.info.Offset + 1, false},
					cut{r.seg, mid, false},
					cut{r.seg, r.info.End, true})
			}

			for _, c := range cuts {
				name := fmt.Sprintf("seg%d@%d", c.seg, c.off)
				dataDir := t.TempDir()
				copyTruncated(t, segs, filepath.Join(dataDir, "s000001"), c.seg, c.off)
				k, finished := batchesBefore(c.seg, c.off)
				srv, sess := bootRecovered(t, cs, dataDir)

				// A crash before the header record completed leaves nothing
				// recoverable; the boot must skip the log, not invent a
				// session.
				headerDone := c.seg > 0 || c.off >= recs[0].info.End
				if !headerDone {
					if sess != nil {
						t.Errorf("%s: session recovered from a headerless log", name)
					}
					if got := srv.Stats().WALSkipped; got != 1 {
						t.Errorf("%s: WALSkipped = %d, want 1", name, got)
					}
					continue
				}
				if sess == nil {
					t.Fatalf("%s: session not recovered", name)
				}
				if finished != sess.finished() {
					t.Fatalf("%s: recovered finished=%v, want %v", name, sess.finished(), finished)
				}

				var snap *Snapshot
				var err error
				if finished {
					snap = sess.Latest()
					if snap == nil || !snap.Final {
						t.Fatalf("%s: finished session has no final snapshot", name)
					}
				} else if c.boundary && k < len(batches) {
					// Continuation: the restarted daemon accepts the tail the
					// crash cost the producer, then must land on the full
					// offline replay.
					for _, b := range batches[k:] {
						if err := sess.Enqueue(b); err != nil {
							t.Fatalf("%s: re-ingest after recovery: %v", name, err)
						}
					}
					k = len(batches)
					snap, err = sess.Finish()
					if err != nil {
						t.Fatalf("%s: finish after re-ingest: %v", name, err)
					}
				} else {
					snap, err = sess.Finish()
					if k == 0 {
						// No journaled reads: finishing errors, matching an
						// offline replay of nothing.
						if err == nil {
							t.Errorf("%s: empty recovery produced a snapshot", name)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: finish recovered session: %v", name, err)
					}
				}

				wantReads := 0
				for _, b := range batches[:k] {
					wantReads += len(b)
				}
				if snap.Reads != int64(wantReads) {
					t.Errorf("%s: recovered %d reads, want %d", name, snap.Reads, wantReads)
				}
				gotX, gotY := snapOrders(snap)
				wantX, wantY := offline.orders(t, k)
				if !slices.Equal(gotX, wantX) {
					t.Errorf("%s: X order diverged from offline replay of %d batches:\n  recovered %v\n  offline   %v",
						name, k, gotX, wantX)
				}
				if !slices.Equal(gotY, wantY) {
					t.Errorf("%s: Y order diverged from offline replay of %d batches:\n  recovered %v\n  offline   %v",
						name, k, gotY, wantY)
				}
			}
		})
	}
}

// TestCrashInjectionBitFlips corrupts single bytes inside WAL records —
// frame header, CRC field and payload — and asserts recovery detects the
// damage, truncates back to the last intact record, never panics, and
// still reproduces the offline replay of the surviving prefix.
func TestCrashInjectionBitFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("bit-flip sweep in -short mode")
	}
	cs := crashScenes(t)[1] // warehouse-aisle
	batches, segs, recs := writeFullWAL(t, cs, 5)
	offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}

	for _, victim := range []int{0, 1, 3, len(recs) - 1} {
		r := recs[victim]
		span := r.info.End - r.info.Offset
		for _, delta := range []int64{0, 5, span / 2, span - 1} {
			pos := r.info.Offset + delta
			if pos >= r.info.End {
				continue
			}
			name := fmt.Sprintf("rec%d+%d", victim, delta)
			dataDir := t.TempDir()
			dst := filepath.Join(dataDir, "s000001")
			copyTruncated(t, segs, dst, len(segs)-1, mustSize(t, segs[len(segs)-1]))
			seg := filepath.Join(dst, filepath.Base(segs[r.seg]))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			data[pos] ^= 0x40
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}

			// Expected survivors: every record before the victim.
			k := 0
			finished := false
			for _, rr := range recs[:victim] {
				switch rr.info.Type {
				case 5: // batch
					k++
				case 3:
					finished = true
				}
			}
			srv, sess := bootRecovered(t, cs, dataDir)
			if victim == 0 {
				if sess != nil {
					t.Errorf("%s: session rebuilt from a corrupted header", name)
				}
				continue
			}
			if sess == nil {
				t.Fatalf("%s: session not recovered", name)
			}
			if got := srv.Stats().WALTornTails; got != 1 {
				t.Errorf("%s: WALTornTails = %d, want 1", name, got)
			}
			var snap *Snapshot
			if finished {
				snap = sess.Latest()
			} else {
				snap, err = sess.Finish()
				if k == 0 {
					if err == nil {
						t.Errorf("%s: empty recovery produced a snapshot", name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			gotX, gotY := snapOrders(snap)
			wantX, wantY := offline.orders(t, k)
			if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
				t.Errorf("%s: recovered orders diverged from offline replay of %d batches", name, k)
			}
		}
	}
}

func mustSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestSkippedWALReservesID: a session directory too damaged to recover
// stays on disk — and must still reserve its session number, or every
// boot would mint the same ID again and fail creation against the
// leftover directory.
func TestSkippedWALReservesID(t *testing.T) {
	tr, _, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	// The leavings of a daemon that crashed mid-CreateSession: the
	// session directory exists, the header record does not.
	dir := filepath.Join(opts.DataDir, "s000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), []byte{0xff, 0xee}, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, opts)
	if got := srv.Stats().WALSkipped; got != 1 {
		t.Fatalf("WALSkipped = %d, want 1", got)
	}
	sess, err := srv.CreateSession(tr.Header)
	if err != nil {
		t.Fatalf("create after a skipped WAL dir: %v", err)
	}
	if sess.ID == "s000001" {
		t.Errorf("new session minted the skipped directory's ID")
	}
	if err := sess.Enqueue(tr.Reads[:100]); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRestartResume is the straight-line restart story: half a
// session, process goes away, a new server boots over the same data dir,
// the producer pushes the other half, and the final order equals the
// offline replay of the whole trace — plus the recovery stats surface it.
func TestDurableRestartResume(t *testing.T) {
	cs := crashScenes(t)[1] // warehouse-aisle
	batches := chunkReads(cs.reads, 6)
	dataDir := t.TempDir()
	opts := Options{Config: cs.cfg, DataDir: dataDir, Fsync: wal.SyncNever}

	srv1 := newTestServer(t, opts)
	sess1, err := srv1.CreateSession(cs.header)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:3] {
		if err := sess1.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: srv1 is simply abandoned — nothing is flushed or finished.

	srv2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Stats().SessionsRecovered; got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	half := 0
	for _, b := range batches[:3] {
		half += len(b)
	}
	if got := srv2.Stats().ReadsRecovered; got != int64(half) {
		t.Errorf("recovered %d reads, want %d", got, half)
	}
	st := srv2.Stats()
	if !st.WALEnabled || st.SessionsRecovered != 1 {
		t.Errorf("stats missing recovery: %+v", st)
	}

	sess2, ok := srv2.Session(sess1.ID)
	if !ok {
		t.Fatalf("session %s not recovered", sess1.ID)
	}
	for _, b := range batches[3:] {
		if err := sess2.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	offline := &offlinePrefix{cs: cs, batches: batches, cache: map[int][2][]string{}}
	wantX, wantY := offline.orders(t, len(batches))
	gotX, gotY := snapOrders(snap)
	if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
		t.Errorf("resumed session diverged from offline replay:\n  got  %v / %v\n  want %v / %v", gotX, gotY, wantX, wantY)
	}
	// A second restart must rebuild the now-finished session at its final
	// snapshot without producer-side help.
	srv3, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess3, ok := srv3.Session(sess1.ID)
	if !ok || !sess3.finished() {
		t.Fatal("finished session not rebuilt at the next boot")
	}
	snap3 := sess3.Latest()
	if snap3 == nil || !snap3.Final {
		t.Fatal("rebuilt session has no final snapshot")
	}
	gotX3, gotY3 := snapOrders(snap3)
	if !slices.Equal(gotX3, wantX) || !slices.Equal(gotY3, wantY) {
		t.Error("rebuilt final snapshot diverged")
	}
}

// TestRecoverManySessions: one boot rebuilds a mix of finished and live
// sessions (the replay fan-out path) with every session landing on the
// offline-replay orders and live ones still accepting reads.
func TestRecoverManySessions(t *testing.T) {
	tr, want, opts := aisleTrace(t, 3)
	opts.DataDir = t.TempDir()
	opts.Fsync = wal.SyncNever
	srv1 := newTestServer(t, opts)

	half := len(tr.Reads) / 2
	var finishedIDs, liveIDs []string
	for i := 0; i < 3; i++ {
		sess, err := srv1.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Enqueue(tr.Reads); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Finish(); err != nil {
			t.Fatal(err)
		}
		finishedIDs = append(finishedIDs, sess.ID)
	}
	for i := 0; i < 2; i++ {
		sess, err := srv1.CreateSession(tr.Header)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Enqueue(tr.Reads[:half]); err != nil {
			t.Fatal(err)
		}
		liveIDs = append(liveIDs, sess.ID)
	}
	// Crash: srv1 abandoned unflushed.

	srv2, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Stats().SessionsRecovered; got != 5 {
		t.Fatalf("recovered %d sessions, want 5", got)
	}
	wantX, wantY := trace.EncodeEPCs(want.XOrder), trace.EncodeEPCs(want.YOrder)
	for _, id := range finishedIDs {
		sess, ok := srv2.Session(id)
		if !ok || !sess.finished() {
			t.Fatalf("finished session %s not rebuilt", id)
		}
		snap := sess.Latest()
		if snap == nil || !snap.Final {
			t.Fatalf("session %s has no final snapshot", id)
		}
		gotX, gotY := snapOrders(snap)
		if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
			t.Errorf("session %s diverged from the offline replay", id)
		}
	}
	for _, id := range liveIDs {
		sess, ok := srv2.Session(id)
		if !ok {
			t.Fatalf("live session %s not rebuilt", id)
		}
		if sess.finished() {
			t.Fatalf("live session %s recovered as finished", id)
		}
		if err := sess.Enqueue(tr.Reads[half:]); err != nil {
			t.Fatal(err)
		}
		snap, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		gotX, gotY := snapOrders(snap)
		if !slices.Equal(gotX, wantX) || !slices.Equal(gotY, wantY) {
			t.Errorf("resumed session %s diverged from the offline replay", id)
		}
	}
}

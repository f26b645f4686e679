// Benchmark harness: one testing.B benchmark per paper table/figure (see
// DESIGN.md §4), plus ablation benches for the design choices. Each bench
// regenerates its artifact through internal/experiment using quick-mode
// workloads so `go test -bench=.` stays tractable; run
// `go run ./cmd/experiments -run all -reps 25` for full-fidelity tables.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/dtw"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/reader"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/trace"
	"repro/internal/wal"
)

// benchExperiment runs one registered experiment per iteration and renders
// it to io.Discard so rendering cost is included once.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := experiment.Runner{Seed: 1, Reps: 2, Quick: true}
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Run(id, r)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- motivation and design figures ---

func BenchmarkFig2RSSI(b *testing.B)         { benchExperiment(b, "fig2") }
func BenchmarkFig3Reference(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig4ReferenceY(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5Measured(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6MeasuredY(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7DTW(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8Segmentation(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9QuadraticFit(b *testing.B) { benchExperiment(b, "fig9") }
func BenchmarkIDOrder(b *testing.B)          { benchExperiment(b, "idorder") }

// --- micro-benchmarks ---

func BenchmarkFig12Window(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13TagMoving(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig14AntennaMoving(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkTable1Population(b *testing.B)   { benchExperiment(b, "tab1") }

// --- macro-benchmarks ---

func BenchmarkFig17Schemes(b *testing.B)    { benchExperiment(b, "fig17") }
func BenchmarkFig18Distance(b *testing.B)   { benchExperiment(b, "fig18") }
func BenchmarkFig19Population(b *testing.B) { benchExperiment(b, "fig19") }

// --- case studies ---

func BenchmarkFig21BookLayout(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkTable2Misplaced(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkTable3Airport(b *testing.B)   { benchExperiment(b, "tab3") }
func BenchmarkFig23Latency(b *testing.B)    { benchExperiment(b, "fig23") }

// --- ablations (DESIGN.md §6) ---

func BenchmarkAblationDTW(b *testing.B)     { benchExperiment(b, "ablation-dtw") }
func BenchmarkAblationFit(b *testing.B)     { benchExperiment(b, "ablation-fit") }
func BenchmarkAblationPeriods(b *testing.B) { benchExperiment(b, "ablation-periods") }
func BenchmarkAblationPivot(b *testing.B)   { benchExperiment(b, "ablation-pivot") }

// --- component micro-benches: the O(MN) vs O(MN/w²) claim in isolation ---

func benchProfilePair(b testing.TB) (*stpp.Detector, *profile.Profile) {
	b.Helper()
	s, err := scenario.Whiteboard(scenario.WhiteboardOpts{
		Positions: []geom.Vec2{{X: 1.0, Y: 0}},
		Speed:     0.15,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := s.ProfilesOf()
	if err != nil {
		b.Fatal(err)
	}
	det, err := stpp.NewDetector(s.STPPConfig())
	if err != nil {
		b.Fatal(err)
	}
	return det, ps[0]
}

func BenchmarkDetectSegmented(b *testing.B) {
	det, p := benchProfilePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectFullDTW(b *testing.B) {
	det, p := benchProfilePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectFull(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentedAlign measures one whole segment alignment — column
// fill plus free-end scan and traceback — on a reused aligner: each
// iteration releases the decision array to the shared free-list and
// re-aligns the full query from scratch.
func BenchmarkSegmentedAlign(b *testing.B) {
	det, p := benchProfilePair(b)
	ref, _, _ := det.Reference()
	al := dtw.NewSegmentAligner(ref.Segmentize(5), dtw.SegmentAlignOpts{Stiffness: 0.5})
	qs := p.Segmentize(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Release()
		al.Align(qs)
	}
}

// BenchmarkSegmentFill isolates the DP column fill — the innermost kernel
// of segmented detection — from segmentation, traceback allocation, and
// pooling: a warmed resumable aligner alternates between two queries whose
// first segment differs, so every Align recomputes all n columns into
// already-sized arrays. The cells/s metric is the kernel's throughput
// ceiling; ingest can't beat cells/s × cells-per-read.
func BenchmarkSegmentFill(b *testing.B) {
	det, p := benchProfilePair(b)
	ref, _, _ := det.Reference()
	rs := ref.Segmentize(5)
	qa := p.Segmentize(5)
	qb := append([]dtw.Segment(nil), qa...)
	qb[0].Lo += 1e-9 // distinct column 0: no reusable prefix, full refill
	al := dtw.NewSegmentAligner(rs, dtw.SegmentAlignOpts{Stiffness: 0.5})
	al.Align(qa)
	qs := [2][]dtw.Segment{qa, qb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Align(qs[i&1])
	}
	cells := float64(len(rs)) * float64(len(qa))
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkBlockedDetect isolates the blocked multi-tag detection pass —
// stpp.LocalizeTagsIncremental over one run of 16 tags, whose DP column
// fills all read the detector's shared reference panels — from ingest,
// queueing and profile building. Each iteration releases the per-tag
// decision arrays first, so every pass refills all columns of all 16
// tags: the cells/s metric is the pass's throughput on a cold snapshot,
// directly comparable to BenchmarkSegmentFill's single-tag ceiling.
func BenchmarkBlockedDetect(b *testing.B) {
	s, err := scenario.Population(16, true, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := s.ProfilesOf()
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.STPPConfig()
	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sts := make([]*stpp.DetectState, len(ps))
	for i := range sts {
		sts[i] = loc.NewDetectState()
	}
	out := make([]stpp.TagResult, len(ps))
	reads, cells := 0, 0.0
	refSegs := float64(loc.Detector().RefSegments())
	for _, p := range ps {
		reads += p.Len()
		cells += refSegs * float64(len(p.Segmentize(cfg.Window)))
	}
	loc.LocalizeTagsIncremental(sts, ps, out) // warm segmentation caches and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range sts {
			st.Release()
		}
		loc.LocalizeTagsIncremental(sts, ps, out)
	}
	b.StopTimer()
	for _, r := range out {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(reads)*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// --- streaming engine vs batch localizer ---

// benchReadLog produces a 20-tag population read log plus its STPP config.
func benchReadLog(b testing.TB) ([]reader.TagRead, stpp.Config) {
	b.Helper()
	s, err := scenario.Population(20, true, 0.3, 1)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := s.Run()
	if err != nil {
		b.Fatal(err)
	}
	return reads, s.STPPConfig()
}

// BenchmarkStreamingVsBatch compares the single-threaded batch Localizer
// against the streaming Engine (worker pool over per-tag detection) on the
// same read log, including one mid-stream snapshot for the streaming case.
func BenchmarkStreamingVsBatch(b *testing.B) {
	reads, cfg := benchReadLog(b)
	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := loc.LocalizeReads(reads); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := pipeline.NewFromLocalizer(loc, pipeline.Options{})
			if _, err := eng.Localize(reads); err != nil {
				b.Fatal(err)
			}
		}
	})
	// One mid-stream snapshot on top: measures the cost of incremental
	// answers (every touched tag is re-detected at the second snapshot).
	b.Run("streaming-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := pipeline.NewFromLocalizer(loc, pipeline.Options{})
			eng.Consume(reads[:len(reads)/2])
			if _, err := eng.Snapshot(); err != nil {
				b.Fatal(err)
			}
			eng.Consume(reads[len(reads)/2:])
			if _, err := eng.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotCadence is the tentpole evidence for incremental
// re-detection: one fixed population stream consumed in full, but with the
// read log split into `snapshots` equal slices and a snapshot taken after
// each. Before incremental detection every snapshot re-ran segmentation and
// segment DTW from sample 0 for every dirty tag — total work O(snapshots ×
// profile); with resumable per-tag detection each snapshot pays only for
// the reads that arrived since the previous one, so the whole-stream cost
// is nearly flat in the snapshot count.
func BenchmarkSnapshotCadence(b *testing.B) {
	reads, cfg := benchReadLog(b)
	loc, err := stpp.NewLocalizer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, snapshots := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("snapshots=%d", snapshots), func(b *testing.B) {
			chunk := (len(reads) + snapshots - 1) / snapshots
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := pipeline.NewFromLocalizer(loc, pipeline.Options{})
				for start := 0; start < len(reads); start += chunk {
					eng.Consume(reads[start:min(start+chunk, len(reads))])
					if _, err := eng.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkShardedAisle runs the two-reader warehouse aisle log through
// the sharded deployment engine — per-reader routing, concurrent shard
// localization and order stitching — end to end.
func BenchmarkShardedAisle(b *testing.B) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		b.Fatal(err)
	}
	d := deploy.Of(ms)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se, err := deploy.NewSharded(d, deploy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := se.Localize(reads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonIngest pushes a two-reader aisle log through the serve
// layer — per-session queue, drain task, periodic snapshots,
// drain and final snapshot — the full stppd hot path minus HTTP.
func BenchmarkDaemonIngest(b *testing.B) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		b.Fatal(err)
	}
	hdr := trace.Header{Readers: ms.ReaderMetas()}
	srv, err := serve.New(serve.Options{
		Config:       ms.Readers[0].Scene.STPPConfig(),
		PublishEvery: serve.DefaultPublishEvery,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := srv.CreateSession(hdr)
		if err != nil {
			b.Fatal(err)
		}
		for start := 0; start < len(reads); start += 256 {
			end := min(start+256, len(reads))
			if err := sess.Enqueue(reads[start:end]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sess.Finish(); err != nil {
			b.Fatal(err)
		}
		srv.DropSession(sess.ID)
	}
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkHTTPIngest is BenchmarkDaemonIngest with the HTTP edge and the
// WAL put back: the aisle log POSTed as 256-read NDJSON bodies to
// serve.Handler over loopback, journaled to a durable data dir (fsync
// never, so the number tracks the daemon's CPU rather than the disk) with
// checkpoints every 8192 reads. One op is one session: create, every
// body, finish, drop.
func BenchmarkHTTPIngest(b *testing.B) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		b.Fatal(err)
	}
	hdr, err := json.Marshal(trace.Header{Readers: ms.ReaderMetas()})
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for start := 0; start < len(reads); start += 256 {
		body, err := trace.MarshalReads(reads[start:min(start+256, len(reads))])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	srv, err := serve.New(serve.Options{
		Config:          ms.Readers[0].Scene.STPPConfig(),
		PublishEvery:    serve.DefaultPublishEvery,
		DataDir:         b.TempDir(),
		Fsync:           wal.SyncNever,
		CheckpointEvery: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do := func(method, path string, body []byte, want int) []byte {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != want {
			b.Fatalf("%s %s: status %d, want %d: %s %v", method, path, resp.StatusCode, want, data, err)
		}
		return data
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var created serve.CreateResponse
		if err := json.Unmarshal(do("POST", "/v1/sessions", hdr, http.StatusCreated), &created); err != nil {
			b.Fatal(err)
		}
		for _, body := range bodies {
			do("POST", "/v1/sessions/"+created.ID+"/reads", body, http.StatusOK)
		}
		do("POST", "/v1/sessions/"+created.ID+"/finish", nil, http.StatusOK)
		do("DELETE", "/v1/sessions/"+created.ID, nil, http.StatusNoContent)
	}
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// --- durability: the WAL hot path and boot-time recovery ---

// BenchmarkWALAppend measures the journal append — the extra cost every
// durable ingest batch pays before it becomes visible — at both fsync
// policies.
func BenchmarkWALAppend(b *testing.B) {
	reads, _ := benchReadLog(b)
	batch := reads[:min(256, len(reads))]
	for _, pol := range []wal.Policy{wal.SyncNever, wal.SyncAlways} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			l, err := wal.Create(b.TempDir(), trace.Header{Scenario: "bench"}, wal.Options{Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			// Same warmup rationale as BenchmarkWALGroupCommit: the first
			// appends pay file growth and page-cache population, which at
			// fsync=always is a double-digit skew on short runs.
			for i := 0; i < 64; i++ {
				if err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkRecovery measures a cold boot over one finished durable
// session: WAL scan, replay through a fresh sharded engine, and the
// rebuilt final snapshot — the restart latency a deployment pays per
// recovered session.
func BenchmarkRecovery(b *testing.B) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		b.Fatal(err)
	}
	opts := serve.Options{
		Config:  ms.Readers[0].Scene.STPPConfig(),
		DataDir: b.TempDir(),
		Fsync:   wal.SyncNever,
	}
	srv, err := serve.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := srv.CreateSession(trace.Header{Readers: ms.ReaderMetas()})
	if err != nil {
		b.Fatal(err)
	}
	for start := 0; start < len(reads); start += 256 {
		if err := sess.Enqueue(reads[start:min(start+256, len(reads))]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := sess.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		booted, err := serve.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := booted.Stats().ReadsRecovered; got != int64(len(reads)) {
			b.Fatalf("recovered %d reads, want %d", got, len(reads))
		}
	}
	b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkCheckpointedRecovery is the evidence for checkpointed
// recovery: boot cost over a durable session at a fixed checkpoint cadence,
// with the session history grown 1× vs 4×. Without checkpoints a boot
// replays the whole journal, so recovery time scales with history; with
// them it restores the latest checkpoint and replays only the suffix past
// it. The residual growth is the restore itself: a checkpoint journals
// the profiles and the counters of each tag's detection state, so the
// restore decodes profiles that scale with history and recomputes each
// tag's segments and unwrap curves from them, and the first Align after
// it recomputes the DTW columns the tag still needs.
func BenchmarkCheckpointedRecovery(b *testing.B) {
	ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := ms.Run()
	if err != nil {
		b.Fatal(err)
	}
	span := reads[len(reads)-1].Time - reads[0].Time + 1
	for _, reps := range []int{1, 4} {
		b.Run(fmt.Sprintf("history=%dx", reps), func(b *testing.B) {
			opts := serve.Options{
				Config:          ms.Readers[0].Scene.STPPConfig(),
				DataDir:         b.TempDir(),
				Fsync:           wal.SyncNever,
				CheckpointEvery: 2000,
			}
			srv, err := serve.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := srv.CreateSession(trace.Header{Readers: ms.ReaderMetas()})
			if err != nil {
				b.Fatal(err)
			}
			// The same aisle pass re-played reps times, each shifted past the
			// previous one — a session whose history grows without changing
			// the workload's shape.
			total := 0
			for r := 0; r < reps; r++ {
				pass := reads
				if r > 0 {
					pass = make([]reader.TagRead, len(reads))
					copy(pass, reads)
					for i := range pass {
						pass[i].Time += float64(r) * span
					}
				}
				for start := 0; start < len(pass); start += 256 {
					if err := sess.Enqueue(pass[start:min(start+256, len(pass))]); err != nil {
						b.Fatal(err)
					}
				}
				total += len(pass)
			}
			// Wait out the drain before finishing: cadence checkpoints are
			// journaled by the consumer, and Finish pins the log's tail.
			for sess.Consumed() != sess.Enqueued() {
				time.Sleep(100 * time.Microsecond)
			}
			if _, err := sess.Finish(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				booted, err := serve.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				m := booted.Stats()
				if got := m.ReadsRecovered; got != int64(total) {
					b.Fatalf("recovered %d reads, want %d", got, total)
				}
				if suf := m.SuffixReadsReplayed; suf >= int64(total) {
					b.Fatalf("replayed the full %d-read history; no checkpoint basis", suf)
				}
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// multiSessionDataDir leaves a crashed daemon's data directory behind:
// live aisle sessions stopped at 60% of their traces with checkpoints and
// a suffix past the last one, plus finished sessions. It returns the
// options a restart boots with (stppd's default publish cadence), the
// reads the logs hold and the live sessions' IDs. The server that wrote
// the logs is unreachable once it returns.
func multiSessionDataDir(b *testing.B, live, finished int) (serve.Options, int64, []string) {
	b.Helper()
	opts := serve.Options{
		DataDir:         b.TempDir(),
		Fsync:           wal.SyncNever,
		PublishEvery:    serve.DefaultPublishEvery,
		CheckpointEvery: 8192,
	}
	var srv *serve.Server
	var liveIDs []string
	total := int64(0)
	for i := 0; i < live+finished; i++ {
		ms, err := scenario.WarehouseAisle(scenario.DefaultAisleOpts(int64(i%4 + 1)))
		if err != nil {
			b.Fatal(err)
		}
		reads, err := ms.Run()
		if err != nil {
			b.Fatal(err)
		}
		if srv == nil {
			opts.Config = ms.Readers[0].Scene.STPPConfig()
			if srv, err = serve.New(opts); err != nil {
				b.Fatal(err)
			}
		}
		sess, err := srv.CreateSession(trace.Header{Readers: ms.ReaderMetas()})
		if err != nil {
			b.Fatal(err)
		}
		if i < live {
			reads = reads[:len(reads)*6/10]
			liveIDs = append(liveIDs, sess.ID)
		}
		for start := 0; start < len(reads); start += 256 {
			if err := sess.Enqueue(reads[start:min(start+256, len(reads))]); err != nil {
				b.Fatal(err)
			}
		}
		total += int64(len(reads))
		for sess.Consumed() != sess.Enqueued() {
			time.Sleep(100 * time.Microsecond)
		}
		if i >= live {
			if _, err := sess.Finish(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return opts, total, liveIDs
}

// BenchmarkMultiSessionRecovery is a cold boot over the data directory a
// crash leaves with many sessions: 16 checkpointed live aisle sessions and
// 4 finished ones. Besides the boot rate it reports what the booted server
// retains — the live heap after a collection once New returns — which is
// the recovered engines alone when the boot releases its log input, and
// the data directory's size on disk (wal-MiB): the journal and checkpoint
// bytes the boot reads, of which superseded-MiB are batch records it left
// undecoded because a checkpoint covers them. A boot publishes no
// snapshot of a live session, so their detection work moves to the first
// refresh after it: first-refresh-ms is the time to refresh every live
// session once, untimed in reads/s.
func BenchmarkMultiSessionRecovery(b *testing.B) {
	opts, total, liveIDs := multiSessionDataDir(b, 16, 4)
	runtime.GC()
	b.ResetTimer()
	var refresh time.Duration
	var m runtime.MemStats
	var superseded int64
	for i := 0; i < b.N; i++ {
		booted, err := serve.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := booted.Stats().ReadsRecovered; got != total {
			b.Fatalf("recovered %d reads, want %d", got, total)
		}
		b.StopTimer()
		// What the boot retains, before a refresh adds detection state.
		runtime.GC()
		runtime.ReadMemStats(&m)
		superseded = booted.Stats().RecoverySupersededBytes
		t0 := time.Now()
		for _, id := range liveIDs {
			sess, ok := booted.Session(id)
			if !ok {
				b.Fatalf("live session %s not recovered", id)
			}
			if _, err := sess.Refresh(); err != nil {
				b.Fatal(err)
			}
		}
		refresh += time.Since(t0)
		// Collect the refreshed server before the next boot, so reads/s
		// times boots alone.
		runtime.GC()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	b.ReportMetric(float64(refresh.Nanoseconds())/1e6/float64(b.N), "first-refresh-ms")
	b.ReportMetric(float64(m.HeapAlloc)/(1<<20), "retained-MiB")
	b.ReportMetric(float64(dirBytes(b, opts.DataDir))/(1<<20), "wal-MiB")
	b.ReportMetric(float64(superseded)/(1<<20), "superseded-MiB")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return total
}

// --- the tag lifecycle: endless belts in bounded memory ---

// endlessBelt builds a conveyor-churn read log of n tags at fixed
// density (0.55 m spacing at 0.3 m/s): belt length — and total read
// count — scales with n while the set of tags concurrently inside the
// read zone stays the same size. The lifecycle's claim is that engine
// memory and checkpoint size track the latter, not the former.
func endlessBelt(tb testing.TB, n int) ([]reader.TagRead, stpp.Config) {
	tb.Helper()
	sc, err := scenario.ConveyorChurn(n, 0.55, 0.3, 7)
	if err != nil {
		tb.Fatal(err)
	}
	reads, err := sc.Run()
	if err != nil {
		tb.Fatal(err)
	}
	return reads, sc.STPPConfig()
}

// endlessPolicy is the threshold pair the lifecycle property tests
// validate on this workload: quiet gaps on the belt are well under 2 s
// and timestamp jitter well under 1 s.
func endlessPolicy() stpp.FinalizePolicy {
	return stpp.FinalizePolicy{After: 2.0, Margin: 1.0}
}

// runEndlessStream consumes a belt log through a lifecycle-enabled
// one-reader deployment — the engine stppd runs — with a sweep every 2048
// reads, and returns the final checkpoint blob size and the peak resident
// (unfinalized) tag count. The caller owns the returned engine.
func runEndlessStream(tb testing.TB, reads []reader.TagRead, cfg stpp.Config) (eng *deploy.ShardedEngine, ckptBytes, maxResident int) {
	tb.Helper()
	d := deploy.Deployment{Readers: []deploy.ReaderSpec{{ID: 0, Config: cfg}}}
	eng, err := deploy.NewSharded(d, deploy.Options{Finalize: endlessPolicy()})
	if err != nil {
		tb.Fatal(err)
	}
	const chunk = 2048
	for start := 0; start < len(reads); start += chunk {
		if err := eng.Consume(reads[start:min(start+chunk, len(reads))]); err != nil {
			tb.Fatal(err)
		}
		if _, err := eng.Snapshot(); err != nil {
			tb.Fatal(err)
		}
		if r := eng.Tags(); r > maxResident {
			maxResident = r
		}
	}
	return eng, len(eng.Checkpoint(nil)), maxResident
}

// BenchmarkEndlessStream is the tentpole evidence for finalize-and-evict:
// the same conveyor-churn workload at 1× and 4× belt lengths (fixed
// active-tag density), consumed with periodic sweeps. Throughput, peak
// resident tags and checkpoint blob size must all stay flat as the belt
// grows — the engine pays for the tags under the readers, not the tags
// ever seen. TestEndlessStreamFlatMemory gates the flatness; the bench
// records the numbers.
func BenchmarkEndlessStream(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"belt=1x", 32}, {"belt=4x", 128}} {
		b.Run(bc.name, func(b *testing.B) {
			reads, cfg := endlessBelt(b, bc.n)
			var ckpt, resident, emitted int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, ck, res := runEndlessStream(b, reads, cfg)
				ckpt, resident, emitted = ck, res, len(eng.Emitted())
				eng.Close()
			}
			if emitted == 0 {
				b.Fatal("belt emitted nothing; the lifecycle went unexercised")
			}
			b.ReportMetric(float64(len(reads))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
			b.ReportMetric(float64(ckpt), "ckpt-bytes")
			b.ReportMetric(float64(resident), "resident-tags")
		})
	}
}

// TestEndlessStreamFlatMemory asserts the bounded-memory claim outright:
// growing the belt 4× must leave the checkpoint blob, the peak resident
// set and the engine's retained heap within 1.2× of the 1× run (heap
// with a small absolute floor — at these sizes allocator noise would
// otherwise dominate the ratio).
func TestEndlessStreamFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("endless-stream memory audit in -short mode")
	}
	type run struct {
		ckpt, resident int
		heap           int64
	}
	measure := func(n int) run {
		reads, cfg := endlessBelt(t, n)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		eng, ckpt, resident := runEndlessStream(t, reads, cfg)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heap := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
		if emitted := len(eng.Emitted()); emitted < n/2 {
			t.Fatalf("belt of %d emitted only %d tags; the lifecycle went unexercised", n, emitted)
		}
		eng.Close()
		return run{ckpt: ckpt, resident: resident, heap: heap}
	}
	small, large := measure(32), measure(128)
	t.Logf("1x: ckpt=%dB resident=%d heap=%+dB; 4x: ckpt=%dB resident=%d heap=%+dB",
		small.ckpt, small.resident, small.heap, large.ckpt, large.resident, large.heap)
	if float64(large.ckpt) > 1.2*float64(small.ckpt) {
		t.Errorf("checkpoint blob grew with belt length: %dB at 1x, %dB at 4x", small.ckpt, large.ckpt)
	}
	if float64(large.resident) > 1.2*float64(small.resident)+1 {
		t.Errorf("peak resident tags grew with belt length: %d at 1x, %d at 4x", small.resident, large.resident)
	}
	const heapFloor = 8 << 20 // below this, allocator noise dominates
	if large.heap > heapFloor && float64(large.heap) > 1.2*float64(max(small.heap, heapFloor)) {
		t.Errorf("retained heap grew with belt length: %+dB at 1x, %+dB at 4x", small.heap, large.heap)
	}
}

// BenchmarkWALGroupCommit is the group-commit counterpart of
// BenchmarkWALAppend/fsync=always: the same 256-read batches, but appended
// by concurrent producers so one leader fsync covers every batch queued
// while the disk was busy.
func BenchmarkWALGroupCommit(b *testing.B) {
	reads, _ := benchReadLog(b)
	batch := reads[:min(256, len(reads))]
	l, err := wal.Create(b.TempDir(), trace.Header{Scenario: "bench"},
		wal.Options{Fsync: wal.SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	// Warm the log before timing: the first appends pay for file growth,
	// page-cache population and buffer sizing, which otherwise skews
	// short runs — this benchmark is fsync-bound and run-to-run variance
	// was ±25% without a warmup.
	for i := 0; i < 64; i++ {
		if err := l.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetParallelism(4) // 4×GOMAXPROCS producer goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkParallelRunner compares serial and pooled repetition execution
// on a macro experiment (identical tables either way). The serial side
// runs its repetitions on a stopped scheduler, which leaves every rep to
// the caller.
func BenchmarkParallelRunner(b *testing.B) {
	stopped := sched.New(1)
	stopped.Stop()
	for _, bc := range []struct {
		name  string
		group *sched.Group
	}{{"serial", stopped.NewGroup("serial")}, {"parallel", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			r := experiment.Runner{Seed: 1, Reps: 4, Quick: true, Group: bc.group}
			for i := 0; i < b.N; i++ {
				tab, err := experiment.Run("fig18", r)
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullDTWAlign(b *testing.B) {
	det, p := benchProfilePair(b)
	ref, _, _ := det.Reference()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtw.Align(ref.Phases, p.Phases, nil)
	}
}

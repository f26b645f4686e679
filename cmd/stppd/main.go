// Command stppd is the STPP trace-ingest daemon: it accepts many
// concurrent ingest sessions over HTTP, routes each session's reads into
// its own sharded streaming engine behind a bounded backpressured queue,
// and publishes periodic stitched-order snapshots on a query endpoint.
//
// A session speaks the trace wire format: its header is the trace.Header
// JSON a recorded trace starts with, and its reads are the same NDJSON
// lines tracegen archives — `cat trace.jsonl` minus the first line IS a
// valid reads body. The final order returned by /finish is byte-identical
// to an offline `stpp -in trace.jsonl` replay of the same reads.
//
// With -data-dir set, sessions are durable: every accepted batch is
// journaled to a per-session write-ahead log before it becomes visible,
// and a restarted daemon replays the logs — finished sessions come back
// at their final snapshot, live ones resume exactly where the journal
// ends, with torn tails from a crash detected and truncated. The -fsync
// knob picks the append durability (always = power-loss safe, never =
// process-crash safe), and segments rotate at -segment-mb.
//
// Recovery cost is bounded by -checkpoint-every: every N consumed reads
// the session journals a deterministic engine checkpoint and deletes the
// WAL segments it covers, so a restart restores the checkpoint and
// replays only the suffix — paying for the new work, not the history.
// Under -fsync always, batches that arrive while an fsync is in flight
// share the next one (group commit).
//
// With -finalize-after set, sessions run the tag lifecycle: a tag whose
// pass is conclusively over (its V-zone center sits -finalize-margin
// seconds behind the stream frontier and it has been quiet for
// -finalize-after seconds in every zone that saw it) is emitted to the
// session's ordered output stream — GET /v1/sessions/{id}/emitted,
// cursor-paginated — and its profile series, detection state and DTW
// matrices are evicted. An endless belt then runs in memory proportional
// to the tags currently under the readers, not the tags ever seen, and
// checkpoints stay flat in belt length. -max-active-tags bounds the
// resident set: ingest at the bound fails fast with HTTP 429 instead of
// growing without limit.
//
// Usage:
//
//	stppd -addr :8080
//	stppd -addr 127.0.0.1:0 -queue 32 -batch 128 -publish 1000
//	stppd -addr :7080 -data-dir /var/lib/stppd -fsync always
//	stppd -addr :7080 -pprof    # net/http/pprof under /debug/pprof/
//
// Endpoints (see internal/serve):
//
//	POST   /v1/sessions             create session (trace.Header JSON body)
//	POST   /v1/sessions/{id}/reads  NDJSON read lines
//	GET    /v1/sessions/{id}/order  latest snapshot (?refresh=1 forces one)
//	POST   /v1/sessions/{id}/finish drain + final order
//	GET    /v1/sessions/{id}/emitted finalized-tag stream page (?cursor=N&limit=M)
//	GET    /v1/sessions/{id}        session counters
//	DELETE /v1/sessions/{id}        abort session
//	GET    /v1/stats                server counters
//	GET    /metrics                 Prometheus text exposition
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/phys"
	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/wal"
)

// Listener timeouts. A client that opens a connection and never finishes
// its request header would otherwise hold the connection and its
// goroutine for as long as it likes. There is deliberately no read
// timeout: it would bound the whole request, and a reads body is an
// NDJSON stream that runs as long as its producer keeps sending.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute // between keep-alive requests
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7080", "listen address (port 0 = ephemeral)")
		ch      = flag.Int("channel", 6, "carrier channel for the reference wavelength")
		window  = flag.Int("w", 5, "segmentation window w")
		queue   = flag.Int("queue", serve.DefaultQueueBatches, "per-session queue capacity, in batches (backpressure bound)")
		batch   = flag.Int("batch", serve.DefaultMaxBatch, "max reads per queued batch")
		publish = flag.Int("publish", serve.DefaultPublishEvery, "publish a snapshot every N consumed reads (0 = only on refresh/finish); reads replayed at boot count but publish nothing unless -finalize-after is set")
		dataDir = flag.String("data-dir", "", "write-ahead log directory; empty = in-memory sessions (no durability)")
		fsync   = flag.String("fsync", "always", "WAL fsync policy: always | never")
		segMB   = flag.Int("segment-mb", wal.DefaultSegmentBytes>>20, "WAL segment rotation size, MiB")
		ckptN   = flag.Int("checkpoint-every", serve.DefaultCheckpointEvery, "journal an engine checkpoint every N consumed reads and truncate covered WAL segments (0 = never)")
		finAft  = flag.Float64("finalize-after", 0, "finalize a tag after this many seconds of phase quiet in every zone that saw it (0 = lifecycle off; must exceed the longest mid-pass read gap)")
		finMrg  = flag.Float64("finalize-margin", 0, "extra seconds the V-zone center must sit behind the frontier before a tag is conclusive")
		maxTags = flag.Int("max-active-tags", 0, "reject ingest while a session holds this many resident (unfinalized) tags (0 = unbounded)")
		pp      = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the same listener")
	)
	flag.Parse()

	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(*ch))
	cfg.Window = *window
	srv, err := serve.New(serve.Options{
		Config:          cfg,
		QueueBatches:    *queue,
		MaxBatch:        *batch,
		PublishEvery:    *publish,
		DataDir:         *dataDir,
		Fsync:           policy,
		SegmentBytes:    int64(*segMB) << 20,
		CheckpointEvery: *ckptN,
		FinalizeAfter:   *finAft,
		FinalizeMargin:  *finMrg,
		MaxActiveTags:   *maxTags,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The bound address goes to stdout so scripts (and the e2e test) can
	// drive an ephemeral-port daemon.
	fmt.Printf("stppd listening on %s\n", ln.Addr())
	if *dataDir != "" {
		// The replayed/recovered split is the checkpoint payoff: recovered
		// counts every read a session came back with, replayed only the
		// suffix actually re-consumed past the last durable checkpoint.
		// Superseded bytes are batch records scanned but never decoded,
		// because a checkpoint covers them.
		st := srv.Stats()
		fmt.Printf("stppd recovered %d sessions (%d reads, %d replayed past checkpoints, %d torn tails, %d skipped) from %s in %v (%d log bytes, %d superseded), fsync=%s\n",
			st.SessionsRecovered, st.ReadsRecovered, st.SuffixReadsReplayed,
			st.WALTornTails, st.WALSkipped, *dataDir,
			time.Duration(st.RecoverySeconds*1e9).Round(time.Microsecond), st.RecoveryWALBytes,
			st.RecoverySupersededBytes, policy)
	}

	handler := srv.Handler()
	if *pp {
		// Profiling rides the service listener behind an explicit opt-in:
		// a production daemon doesn't leak pprof by default, and a bench
		// run gets CPU/heap/goroutine profiles without a second port.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stppd:", err)
	os.Exit(1)
}

// Command loadgen replays recorded traces against a running stppd at a
// configurable rate × N concurrent sessions and verifies the daemon: each
// session's final global X/Y order must be byte-identical to the offline
// replay (the same deploy.FromHeader + ShardedEngine path cmd/stpp runs)
// of the same trace.
//
// With -state it becomes the kill/restart replay harness for a durable
// daemon (stppd -data-dir): the first run sends only -stop-after batches
// per session, then records each open session in the state file and
// exits WITHOUT finishing — the operator kills and restarts stppd — and a
// second run with the same state file resumes every session where it
// paused, finishes it, and verifies the final order against the offline
// replay of the whole trace. A daemon that lost or corrupted a single
// journaled read cannot pass the resume run.
//
// Usage:
//
//	tracegen -scenario aisle -n 12 -o aisle.jsonl
//	stppd -addr :7080 &
//	loadgen -addr 127.0.0.1:7080 -in aisle.jsonl -sessions 32
//	loadgen -addr 127.0.0.1:7080 -in aisle.jsonl,portals.jsonl -sessions 64 -rate 5000
//
//	# kill/restart replay against a durable daemon:
//	stppd -addr :7080 -data-dir ./wal &
//	loadgen -addr 127.0.0.1:7080 -in aisle.jsonl -sessions 8 -state replay.json -stop-after 3
//	kill -9 %1 && stppd -addr :7080 -data-dir ./wal &
//	loadgen -addr 127.0.0.1:7080 -in aisle.jsonl -state replay.json
//
// Exit status 0 means every session matched; anything else is a failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/phys"
	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/trace"
)

type workload struct {
	name   string
	header trace.Header
	body   [][]byte // pre-marshaled NDJSON batches
	reads  int
	wantX  []string
	wantY  []string
}

// sessionState records one paused session so a later run can resume it.
type sessionState struct {
	ID      string `json:"id"`
	Trace   string `json:"trace"`
	Batches int    `json:"batches"` // batches already sent (and acked)
	Reads   int    `json:"reads"`   // reads those batches held
}

// replayState is the -state file: the paused sessions of a kill/restart
// replay, written by the pause run and consumed by the resume run. Batch
// pins the POST chunking the pause run used — batch counts are only
// meaningful at that size, so the resume run re-chunks with it and
// ignores its own -batch flag.
type replayState struct {
	Batch    int            `json:"batch"`
	Sessions []sessionState `json:"sessions"`
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7080", "stppd address")
		in        = flag.String("in", "", "comma-separated JSONL trace files")
		sessions  = flag.Int("sessions", 32, "concurrent sessions")
		rate      = flag.Float64("rate", 0, "per-session replay rate in reads/s (0 = as fast as possible)")
		batch     = flag.Int("batch", 256, "reads per POST")
		ch        = flag.Int("channel", 6, "carrier channel (must match stppd)")
		window    = flag.Int("w", 5, "segmentation window (must match stppd)")
		verbose   = flag.Bool("v", false, "per-session progress")
		stateFile = flag.String("state", "", "kill/restart state file: missing = pause run (needs -stop-after), present = resume run")
		stopAfter = flag.Int("stop-after", 0, "with -state: batches per session to send before pausing")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the client side to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile after the run to this file")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := stpp.DefaultConfig(phys.ChinaBand.Wavelength(*ch))
	cfg.Window = *window

	// A resume run must chunk exactly like its pause run did, whatever
	// -batch says now: the recorded batch counts index those chunks.
	var resume *replayState
	effBatch := *batch
	if *stateFile != "" {
		data, err := os.ReadFile(*stateFile)
		switch {
		case err == nil:
			var st replayState
			if err := json.Unmarshal(data, &st); err != nil {
				fatal(fmt.Errorf("%s: %w", *stateFile, err))
			}
			resume = &st
			if st.Batch > 0 {
				effBatch = st.Batch
			}
		case !os.IsNotExist(err):
			fatal(err)
		}
	}

	loads := map[string]*workload{}
	var order []*workload
	for _, path := range strings.Split(*in, ",") {
		path = strings.TrimSpace(path)
		wl, err := loadWorkload(path, cfg, effBatch)
		if err != nil {
			fatal(err)
		}
		loads[path] = wl
		order = append(order, wl)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *sessions * 2,
		MaxIdleConnsPerHost: *sessions * 2,
	}}
	base := "http://" + *addr

	if *stateFile != "" {
		if resume == nil {
			if *stopAfter <= 0 {
				fatal(fmt.Errorf("-state %s does not exist: a pause run needs -stop-after > 0", *stateFile))
			}
			pauseRun(client, base, order, *sessions, *rate, *stopAfter, effBatch, *stateFile)
			return
		}
		resumeRun(client, base, loads, *rate, *verbose, *stateFile, resume)
		return
	}

	var wg sync.WaitGroup
	errs := make([]error, *sessions)
	start := time.Now()
	totalReads := 0
	for i := 0; i < *sessions; i++ {
		wl := order[i%len(order)]
		totalReads += wl.reads
		wg.Add(1)
		go func(i int, wl *workload) {
			defer wg.Done()
			errs[i] = runSession(client, base, wl, *rate, *verbose, i)
		}(i, wl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "session %d (%s): %v\n", i, order[i%len(order)].name, err)
		}
	}
	fmt.Printf("%d/%d sessions OK, %d reads in %.2fs (%.0f reads/s aggregate)\n",
		*sessions-failed, *sessions, totalReads, elapsed.Seconds(),
		float64(totalReads)/elapsed.Seconds())
	printServerStats(client, base)
	if failed > 0 {
		os.Exit(1)
	}
}

// pauseRun is the first half of a kill/restart replay: create sessions,
// send -stop-after batches each, and save the open sessions to the state
// file without finishing them.
func pauseRun(client *http.Client, base string, order []*workload, sessions int, rate float64, stopAfter, batch int, stateFile string) {
	var wg sync.WaitGroup
	states := make([]sessionState, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wl := order[i%len(order)]
		wg.Add(1)
		go func(i int, wl *workload) {
			defer wg.Done()
			id, err := createSession(client, base, wl)
			if err != nil {
				errs[i] = err
				return
			}
			upto := min(stopAfter, len(wl.body))
			sent, err := sendBatches(client, base, id, wl, 0, upto, rate)
			if err != nil {
				errs[i] = err
				return
			}
			states[i] = sessionState{ID: id, Trace: wl.name, Batches: upto, Reads: sent}
		}(i, wl)
	}
	wg.Wait()
	failed := 0
	st := replayState{Batch: batch}
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "session %d: %v\n", i, err)
			continue
		}
		st.Sessions = append(st.Sessions, states[i])
	}
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(stateFile, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("paused %d sessions after %d batches each; state saved to %s\n",
		len(st.Sessions), stopAfter, stateFile)
	fmt.Println("kill and restart stppd, then rerun loadgen with the same -state to resume and verify")
	if failed > 0 {
		os.Exit(1)
	}
}

// resumeRun is the second half: pick every paused session back up on the
// (restarted) daemon, stream the rest of its trace, finish, and hold the
// final order to the offline replay of the WHOLE trace — reads from
// before the restart included, which only a correct WAL recovery passes.
func resumeRun(client *http.Client, base string, loads map[string]*workload, rate float64, verbose bool, stateFile string, st *replayState) {
	if len(st.Sessions) == 0 {
		fatal(fmt.Errorf("%s holds no sessions", stateFile))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(st.Sessions))
	start := time.Now()
	for i, ss := range st.Sessions {
		wl, ok := loads[ss.Trace]
		if !ok {
			errs[i] = fmt.Errorf("state references trace %q not given via -in", ss.Trace)
			continue
		}
		wg.Add(1)
		go func(i int, ss sessionState, wl *workload) {
			defer wg.Done()
			sent, err := sendBatches(client, base, ss.ID, wl, ss.Batches, len(wl.body), rate)
			if err != nil {
				errs[i] = fmt.Errorf("resume: %w", err)
				return
			}
			errs[i] = finishAndVerify(client, base, ss.ID, wl, ss.Reads+sent)
			if errs[i] == nil && verbose {
				fmt.Printf("session %s (%s): resumed at batch %d, orders match\n", ss.ID, wl.name, ss.Batches)
			}
		}(i, ss, wl)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "session %s (%s): %v\n", st.Sessions[i].ID, st.Sessions[i].Trace, err)
		}
	}
	fmt.Printf("%d/%d resumed sessions OK in %.2fs\n",
		len(st.Sessions)-failed, len(st.Sessions), time.Since(start).Seconds())
	printServerStats(client, base)
	if failed > 0 {
		os.Exit(1)
	}
	os.Remove(stateFile)
}

// loadWorkload reads one trace, pre-marshals its NDJSON batches and
// computes the offline ground result the daemon must reproduce.
func loadWorkload(path string, cfg stpp.Config, batch int) (*workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	se, err := deploy.NewSharded(deploy.FromHeader(tr.Header, cfg, false, false), deploy.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want, err := se.Localize(tr.Reads)
	if err != nil {
		return nil, fmt.Errorf("%s: offline replay: %w", path, err)
	}

	wl := &workload{
		name:   path,
		header: tr.Header,
		reads:  len(tr.Reads),
		wantX:  trace.EncodeEPCs(want.XOrder),
		wantY:  trace.EncodeEPCs(want.YOrder),
	}
	// The daemon localizes; it has no use for the recorded ground truth.
	wl.header.TruthX, wl.header.TruthY = nil, nil
	// Pre-marshal the read lines once — shared read-only by every session
	// replaying this trace.
	for start := 0; start < len(tr.Reads); start += batch {
		end := min(start+batch, len(tr.Reads))
		line, err := trace.MarshalReads(tr.Reads[start:end])
		if err != nil {
			return nil, err
		}
		wl.body = append(wl.body, line)
	}
	return wl, nil
}

// createSession opens one daemon session for the workload's deployment.
func createSession(client *http.Client, base string, wl *workload) (string, error) {
	hdr, err := json.Marshal(wl.header)
	if err != nil {
		return "", err
	}
	var created serve.CreateResponse
	if err := post(client, base+"/v1/sessions", hdr, &created); err != nil {
		return "", fmt.Errorf("create: %w", err)
	}
	return created.ID, nil
}

// sendBatches streams wl.body[from:to] into the session, paced to rate,
// and returns the reads accepted.
func sendBatches(client *http.Client, base, id string, wl *workload, from, to int, rate float64) (int, error) {
	sessURL := base + "/v1/sessions/" + id
	sent := 0
	start := time.Now()
	for _, body := range wl.body[from:to] {
		var ing serve.IngestResponse
		if err := post(client, sessURL+"/reads", body, &ing); err != nil {
			return sent, fmt.Errorf("reads after %d: %w", sent, err)
		}
		sent += ing.Accepted
		if rate > 0 {
			// Pace to the target rate measured from send start, so slow
			// POSTs (backpressure) do not pile extra sleep on top.
			ahead := time.Duration(float64(sent)/rate*float64(time.Second)) - time.Since(start)
			if ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	return sent, nil
}

// finishAndVerify drains the session and holds its final order to the
// offline replay. sent is the total reads this tool pushed across all
// runs; it must equal both the trace and what the daemon consumed.
func finishAndVerify(client *http.Client, base, id string, wl *workload, sent int) error {
	var final serve.OrderResponse
	if err := post(client, base+"/v1/sessions/"+id+"/finish", nil, &final); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if sent != wl.reads {
		return fmt.Errorf("sent %d reads, trace has %d", sent, wl.reads)
	}
	if !final.Final {
		return fmt.Errorf("finish returned a non-final snapshot")
	}
	if int(final.Reads) != wl.reads {
		return fmt.Errorf("daemon consumed %d reads, want %d", final.Reads, wl.reads)
	}
	if !slices.Equal(final.XOrder, wl.wantX) {
		return fmt.Errorf("X order diverged from offline replay:\n  daemon  %v\n  offline %v", final.XOrder, wl.wantX)
	}
	if !slices.Equal(final.YOrder, wl.wantY) {
		return fmt.Errorf("Y order diverged from offline replay:\n  daemon  %v\n  offline %v", final.YOrder, wl.wantY)
	}
	return nil
}

// runSession drives one full session: create, stream all batches (paced),
// finish, verify the final orders.
func runSession(client *http.Client, base string, wl *workload, rate float64, verbose bool, idx int) error {
	id, err := createSession(client, base, wl)
	if err != nil {
		return err
	}
	start := time.Now()
	sent, err := sendBatches(client, base, id, wl, 0, len(wl.body), rate)
	if err != nil {
		return err
	}
	if err := finishAndVerify(client, base, id, wl, sent); err != nil {
		return err
	}
	if verbose {
		fmt.Printf("session %d (%s): %d reads in %.2fs, orders match\n",
			idx, id, sent, time.Since(start).Seconds())
	}
	return nil
}

func printServerStats(client *http.Client, base string) {
	stats, err := fetchStats(client, base)
	if err != nil {
		return
	}
	fmt.Printf("server: %d sessions finished, %d stalls (backpressure), %d snapshots, avg snapshot %.1fms\n",
		stats.SessionsFinished, stats.Stalls, stats.Snapshots, stats.AvgSnapshotMs)
	if stats.WALEnabled {
		fmt.Printf("server: WAL %d appends, %d errors; recovered %d sessions / %d reads (%d torn tails, %d skipped)\n",
			stats.WALAppends, stats.WALErrors, stats.SessionsRecovered,
			stats.ReadsRecovered, stats.WALTornTails, stats.WALSkipped)
		if stats.CheckpointsWritten > 0 || stats.SuffixReadsReplayed > 0 {
			fmt.Printf("server: checkpoints %d written, %d segments truncated; restart replayed %d of %d recovered reads\n",
				stats.CheckpointsWritten, stats.SegmentsTruncated,
				stats.SuffixReadsReplayed, stats.ReadsRecovered)
		}
	}
}

// post sends body (nil = empty) and decodes the JSON response into out,
// treating non-2xx statuses as errors carrying the server's message.
func post(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func fetchStats(client *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

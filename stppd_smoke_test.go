package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startStppd launches a daemon binary, waits for its "listening" banner
// and returns the process, the bound address, and a line channel carrying
// the rest of its output (the recovery banner, in particular).
func startStppd(t *testing.T, bin string, args ...string) (*exec.Cmd, string, chan string) {
	t.Helper()
	daemon := exec.Command(bin, args...)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = daemon.Stdout
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		daemon.Process.Kill()
		daemon.Wait()
	})
	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line := <-lines:
		fields := strings.Fields(line) // "stppd listening on HOST:PORT"
		if len(fields) < 4 {
			t.Fatalf("unexpected stppd banner: %q", line)
		}
		return daemon, fields[3], lines
	case <-time.After(10 * time.Second):
		t.Fatal("stppd did not announce its address")
		return nil, "", nil
	}
}

// TestDaemonLoadEndToEnd is the tentpole acceptance run: loadgen drives 32
// concurrent sessions (a multi-reader aisle trace and a single-reader
// library trace) against a live stppd with a deliberately small queue, and
// every session's final global order must be byte-identical to the offline
// replay — with backpressure engaged and queue memory bounded.
func TestDaemonLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon load test in -short mode")
	}
	bins := buildCommands(t, "stppd", "loadgen", "tracegen")
	dir := t.TempDir()
	aisle := filepath.Join(dir, "aisle.jsonl")
	lib := filepath.Join(dir, "lib.jsonl")
	if o, err := exec.Command(bins["tracegen"],
		"-scenario", "aisle", "-n", "8", "-seed", "2", "-o", aisle).CombinedOutput(); err != nil {
		t.Fatalf("tracegen aisle: %v\n%s", err, o)
	}
	if o, err := exec.Command(bins["tracegen"],
		"-scenario", "library", "-seed", "3", "-o", lib).CombinedOutput(); err != nil {
		t.Fatalf("tracegen library: %v\n%s", err, o)
	}

	// Small queue so backpressure actually engages under 32 sessions.
	_, addr, _ := startStppd(t, bins["stppd"], "-addr", "127.0.0.1:0", "-queue", "4", "-batch", "128", "-publish", "1500")

	out, err := exec.Command(bins["loadgen"],
		"-addr", addr, "-in", aisle+","+lib, "-sessions", "32", "-batch", "128").CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "32/32 sessions OK") {
		t.Errorf("loadgen did not verify all sessions:\n%s", s)
	}
	if !strings.Contains(s, "32 sessions finished") {
		t.Errorf("server stats missing from loadgen output:\n%s", s)
	}
}

// TestDaemonCrashRecoveryEndToEnd is the kill-and-restart walkthrough the
// README documents, run for real: a durable stppd takes half of every
// session's reads, dies by SIGKILL, restarts over the same -data-dir, and
// loadgen resumes each recovered session and verifies its final order is
// byte-identical to the offline replay of the whole trace — reads sent
// before the kill included.
func TestDaemonCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon crash-recovery test in -short mode")
	}
	bins := buildCommands(t, "stppd", "loadgen", "tracegen")
	dir := t.TempDir()
	aisle := filepath.Join(dir, "aisle.jsonl")
	pop := filepath.Join(dir, "pop.jsonl")
	if o, err := exec.Command(bins["tracegen"],
		"-scenario", "aisle", "-n", "6", "-seed", "5", "-o", aisle).CombinedOutput(); err != nil {
		t.Fatalf("tracegen aisle: %v\n%s", err, o)
	}
	if o, err := exec.Command(bins["tracegen"],
		"-scenario", "population", "-n", "5", "-seed", "6", "-o", pop).CombinedOutput(); err != nil {
		t.Fatalf("tracegen population: %v\n%s", err, o)
	}
	dataDir := filepath.Join(dir, "wal")
	state := filepath.Join(dir, "replay.json")

	// A tight checkpoint cadence (vs the 3×128-read pause run) so the kill
	// lands past several durable checkpoints: the restart must restore
	// engine state and replay only the journal suffix.
	daemon1, addr1, _ := startStppd(t, bins["stppd"],
		"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "always", "-batch", "128",
		"-checkpoint-every", "150")
	out, err := exec.Command(bins["loadgen"],
		"-addr", addr1, "-in", aisle+","+pop, "-sessions", "6", "-batch", "128",
		"-state", state, "-stop-after", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen pause run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "paused 6 sessions") {
		t.Fatalf("pause run did not pause all sessions:\n%s", out)
	}

	// The checkpoints are asynchronous: the drain writes them once it has
	// consumed past the cadence, which on a loaded machine can be well after
	// loadgen's last ack. Wait until every acked read is consumed and each
	// of the 6 sessions has journaled a checkpoint, so the kill lands past
	// them.
	waitCheckpointed(t, addr1, 6)

	// The crash: SIGKILL, no drain, no shutdown hooks.
	daemon1.Process.Kill()
	daemon1.Wait()

	daemon2, addr2, lines := startStppd(t, bins["stppd"],
		"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "always", "-batch", "128",
		"-checkpoint-every", "150")
	select {
	case banner := <-lines:
		if !strings.Contains(banner, "recovered 6 sessions") {
			t.Fatalf("recovery banner wrong: %q", banner)
		}
		if !strings.Contains(banner, "0 torn tails, 0 skipped") {
			// SIGKILL between acked batches must not tear the log.
			t.Errorf("unexpected WAL damage after SIGKILL: %q", banner)
		}
		// The pause run took 384 reads per session past a 150-read cadence,
		// so every session restarts from a checkpoint: the replayed suffix
		// must be a proper fraction of the recovered total.
		rec, suf := bannerReadCounts(t, banner)
		if suf >= rec || rec == 0 {
			t.Errorf("restart replayed %d of %d recovered reads; checkpoints saved nothing: %q", suf, rec, banner)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no recovery banner from the restarted daemon")
	}

	// No -batch on the resume run: the state file pins the pause run's
	// chunking, so the recorded batch offsets stay meaningful.
	out, err = exec.Command(bins["loadgen"],
		"-addr", addr2, "-in", aisle+","+pop,
		"-state", state).CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen resume run: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "6/6 resumed sessions OK") {
		t.Errorf("resume run failed to verify all sessions:\n%s", s)
	}
	if !strings.Contains(s, "recovered 6 sessions") {
		t.Errorf("resume run stats missing recovery counters:\n%s", s)
	}
	if !strings.Contains(s, "segments truncated") {
		t.Errorf("resume run stats missing checkpoint counters:\n%s", s)
	}
	daemon2.Process.Kill()
	daemon2.Wait()
}

// waitCheckpointed polls a daemon's /v1/stats until it has consumed every
// read it ingested and journaled at least n checkpoints.
func waitCheckpointed(t *testing.T, addr string, n int64) {
	t.Helper()
	var st struct {
		Ingested    int64 `json:"reads_ingested"`
		Consumed    int64 `json:"reads_consumed"`
		Checkpoints int64 `json:"wal_checkpoints"`
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err == nil && st.Consumed == st.Ingested && st.Checkpoints >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never checkpointed: %+v (last error %v)", st, err)
		}
	}
}

// bannerReadCounts pulls the recovered-total and replayed-suffix read
// counts out of the stppd recovery banner:
//
//	stppd recovered N sessions (R reads, S replayed past checkpoints, ...)
func bannerReadCounts(t *testing.T, banner string) (recovered, suffix int) {
	t.Helper()
	open := strings.Index(banner, "(")
	if open < 0 {
		t.Fatalf("no counters in banner: %q", banner)
	}
	if _, err := fmt.Sscanf(banner[open:], "(%d reads, %d replayed past checkpoints",
		&recovered, &suffix); err != nil {
		t.Fatalf("unparseable banner %q: %v", banner, err)
	}
	return recovered, suffix
}

// TestDaemonClosesStalledHeader: a client that sends half a request
// header and then stalls must not hold its connection forever — the
// daemon's header timeout closes it.
func TestDaemonClosesStalledHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon listener test in -short mode")
	}
	bins := buildCommands(t, "stppd")
	_, addr, _ := startStppd(t, bins["stppd"], "-addr", "127.0.0.1:0")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/sessions HTTP/1.1\r\nHost: stppd\r\n"); err != nil {
		t.Fatal(err)
	}
	// Far past the header timeout: only a daemon that never times the
	// header out keeps the connection open this long.
	const patience = 30 * time.Second
	start := time.Now()
	conn.SetReadDeadline(start.Add(patience))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("daemon kept a half-sent header open for %v", patience)
	}
	t.Logf("daemon closed the stalled connection after %v (read error: %v)", time.Since(start).Round(time.Millisecond), err)
}

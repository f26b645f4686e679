package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/stpp"
	"repro/internal/wal"
)

// buildStppd compiles ./cmd/stppd of the checkout at root into out, so
// every run measures the daemon of the commit under test.
func buildStppd(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/stppd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build stppd: %w", err)
	}
	return nil
}

// daemonConfig is the stppd configuration a workload runs; the flags the
// daemon gets, the offline reference replay and the in-process ladder all
// derive from it, so they cannot disagree.
type daemonConfig struct {
	fsync           wal.Policy
	checkpointEvery int
	finalize        stpp.FinalizePolicy
}

// publishEvery is stppd's default -publish interval, which the ladder
// reproduces.
const publishEvery = 2000

func (c daemonConfig) flags() []string {
	f := []string{"-fsync", c.fsync.String(), "-checkpoint-every", strconv.Itoa(c.checkpointEvery)}
	if c.finalize.Enabled() {
		f = append(f,
			"-finalize-after", strconv.FormatFloat(c.finalize.After, 'g', -1, 64),
			"-finalize-margin", strconv.FormatFloat(c.finalize.Margin, 'g', -1, 64))
	}
	return f
}

// connections is how many HTTP connections (and sender goroutines) the
// harness ever opens against a daemon: the reference box's core count, so
// the load generator cannot outnumber the cores the daemon runs on.
const connections = 2

// daemon is one running stppd child process.
type daemon struct {
	cmd   *exec.Cmd
	conns [connections]*conn
	// setup is the time from exec until /v1/stats first answered.
	setup   time.Duration
	drained chan struct{} // closed once the child's stdout hits EOF
}

// bootTimeout bounds one boot, recovery included.
const bootTimeout = 60 * time.Second

// startDaemon execs stppd on an ephemeral loopback port over dataDir and
// waits until /v1/stats answers.
func startDaemon(bin, dataDir string, cfg daemonConfig) (*daemon, error) {
	// Flush what the harness and earlier runs wrote (the build, copied
	// data directories, journals without fsync), so the kernel's writeback
	// of it does not land in this daemon's boot or its fsyncs.
	syscall.Sync()
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, cfg.flags()...)
	t0 := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the harness, whatever ends the harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stppd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		defer close(d.drained)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		banner <- line
		io.Copy(io.Discard, br)
	}()
	var addr string
	select {
	case line := <-banner:
		// "stppd listening on HOST:PORT"
		if f := strings.Fields(line); len(f) == 4 && f[0] == "stppd" {
			addr = f[3]
		}
	case <-time.After(bootTimeout):
	}
	if addr == "" {
		d.stop()
		return nil, fmt.Errorf("stppd printed no listening banner")
	}
	base := "http://" + addr
	for i := range d.conns {
		d.conns[i] = newConn(base)
	}
	for {
		err := d.conns[0].do("GET", "/v1/stats", nil, nil)
		if err == nil {
			break
		}
		if time.Since(t0) > bootTimeout {
			d.stop()
			return nil, fmt.Errorf("stppd never answered /v1/stats: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// stop kills the daemon (SIGKILL: a crash, as far as its logs know) and
// waits for it to exit. Kill and Wait can only report the kill itself (or
// a daemon already gone), so their errors are dropped.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
	for _, c := range d.conns {
		if c != nil {
			c.client.CloseIdleConnections()
		}
	}
}

// usage is what the daemon's counters and /proc say about a stretch of
// work; sums of usage over several daemons add up.
type usage struct {
	counters map[string]float64 // unlabeled /metrics samples
	cpuNs    float64            // utime + stime
	userNs   float64            // utime
}

// sample reads the daemon's unlabeled /metrics samples and its CPU time.
func (d *daemon) sample() (usage, error) {
	var body bytes.Buffer
	if err := d.conns[0].get("/metrics", &body); err != nil {
		return usage{}, err
	}
	u := usage{counters: map[string]float64{}}
	for _, line := range strings.Split(body.String(), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			u.counters[name] = v
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks (100 Hz).
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return usage{}, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	u.cpuNs = (utime + stime) * 1e7
	u.userNs = utime * 1e7
	return u, nil
}

// add accumulates the change from before to after into u.
func (u *usage) add(before, after usage) {
	if u.counters == nil {
		u.counters = map[string]float64{}
	}
	for k, v := range after.counters {
		u.counters[k] += v - before.counters[k]
	}
	u.cpuNs += after.cpuNs - before.cpuNs
	u.userNs += after.userNs - before.userNs
}

// peakRSSMB is the daemon's peak resident set (VmHWM), MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// conn is one HTTP/1.1 connection to a daemon, used by one goroutine at a
// time.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
	// answered is when the last request's answer had been read in full,
	// before it was decoded.
	answered time.Time
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: bootTimeout}, base: base}
}

// do sends one request and decodes a JSON answer into out (when non-nil).
// A transport error or a non-2xx status is an error.
func (c *conn) do(method, path string, body []byte, out any) error {
	c.buf.Reset()
	err := c.roundTrip(method, path, body, &c.buf)
	c.answered = time.Now()
	if err != nil {
		return err
	}
	if out != nil {
		if err := json.Unmarshal(c.buf.Bytes(), out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// get fetches path into dst.
func (c *conn) get(path string, dst *bytes.Buffer) error {
	return c.roundTrip("GET", path, nil, dst)
}

func (c *conn) roundTrip(method, path string, body []byte, dst *bytes.Buffer) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(dst.String()))
	}
	return nil
}

func (c *conn) create(in *traceInput) (string, error) {
	var cr serve.CreateResponse
	err := c.do("POST", "/v1/sessions", in.header, &cr)
	return cr.ID, err
}

// post sends one reads body and checks the daemon accepted all of it.
func (c *conn) post(id string, b body) error {
	var ir serve.IngestResponse
	if err := c.do("POST", "/v1/sessions/"+id+"/reads", b.data, &ir); err != nil {
		return err
	}
	if ir.Accepted != len(b.reads) {
		return fmt.Errorf("session %s accepted %d of %d reads", id, ir.Accepted, len(b.reads))
	}
	return nil
}

func (c *conn) finish(id string) (*serve.OrderResponse, error) {
	var or serve.OrderResponse
	err := c.do("POST", "/v1/sessions/"+id+"/finish", nil, &or)
	return &or, err
}

func (c *conn) order(id string, refresh bool) (*serve.OrderResponse, error) {
	path := "/v1/sessions/" + id + "/order"
	if refresh {
		path += "?refresh=1"
	}
	var or serve.OrderResponse
	err := c.do("GET", path, nil, &or)
	return &or, err
}

func (c *conn) emitted(id string, cursor int64) (*serve.EmittedResponse, error) {
	var er serve.EmittedResponse
	err := c.do("GET", fmt.Sprintf("/v1/sessions/%s/emitted?cursor=%d&limit=4096", id, cursor), nil, &er)
	return &er, err
}

func (c *conn) drop(id string) error {
	return c.do("DELETE", "/v1/sessions/"+id, nil, nil)
}

func (c *conn) stats() (*serve.Stats, error) {
	var st serve.Stats
	err := c.do("GET", "/v1/stats", nil, &st)
	return &st, err
}

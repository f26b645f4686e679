package main

import (
	"sync"
	"time"
)

// record collects one workload run's samples. Every operation the harness
// attempts — each request, each final-order check — passes through op,
// so failed/attempted counts them all.
type record struct {
	mu sync.Mutex

	ack, query, visible, lateness []float64 // ms
	setup                         []float64 // s
	rss                           []float64 // MiB
	taus                          []float64

	reads  int64         // reads acknowledged inside the measured window
	window time.Duration // measured time those reads took
	posts  int64         // reads POSTs, for per-batch daemon ratios
	// queued is the daemon's queue depth in reads when an open loop's
	// window closed: a backlog there means the rate was not sustained.
	queued int64

	attempted, failed int64
	errs              []string

	daemon usage // daemon counters and CPU over the measured work
}

// op counts one attempted operation and returns err, keeping the first
// few failure messages for the report.
func (r *record) op(err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
	return err
}

// timed runs f, whose last request goes over c, as one operation and
// returns its latency from since to the moment c had the whole answer:
// decoding the answer is the harness's work, not the daemon's.
func (r *record) timed(c *conn, since time.Time, f func() error) (float64, error) {
	err := r.op(f())
	return ms(c.answered.Sub(since)), err
}

// add appends samples under the lock (workload goroutines share a record).
func (r *record) add(dst *[]float64, v ...float64) {
	r.mu.Lock()
	*dst = append(*dst, v...)
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported number with its sample count. Supported is false
// when the value rests on too few samples (a percentile with fewer than
// minBeyond samples beyond it, or no samples at all).
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	N         int     `json:"n"`
	Supported bool    `json:"supported"`
}

func pct(xs []float64, p float64) metric {
	v, ok := percentile(xs, p)
	return metric{Value: v, N: len(xs), Supported: ok}
}

func mid(xs []float64) metric {
	return metric{Value: median(xs), N: len(xs), Supported: len(xs) > 0}
}

// endToEnd derives the user-facing metrics BENCHMARK.json bounds from the
// run's samples.
func (r *record) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     mid(r.setup),
		"rss_peak_mb": mid(r.rss),
		"order_tau":   {Value: mean(r.taus), N: len(r.taus), Supported: len(r.taus) > 0},
	}
}

// unbounded derives the user-facing speed metrics every run reports but
// BENCHMARK.json does not bound: on a shared 2-vCPU host none of them
// repeats within the 10% bound from run to run (README.md, Stability).
func (r *record) unbounded() map[string]metric {
	m := map[string]metric{
		"ack_p50_ms":     pct(r.ack, 50),
		"query_p50_ms":   pct(r.query, 50),
		"visible_p50_ms": pct(r.visible, 50),
	}
	for name, v := range m {
		v.Unit = "ms"
		m[name] = v
	}
	rps := metric{Unit: "1/s", N: int(r.reads), Supported: r.window > 0 && r.reads > 0}
	if rps.Supported {
		rps.Value = float64(r.reads) / r.window.Seconds()
	}
	m["reads_per_s"] = rps
	cpu := ratio(r.daemon.userNs/1e3, r.daemon.counters["stppd_reads_ingested_total"])
	cpu.Unit = "us"
	m["user_cpu_us_per_read"] = cpu
	return m
}

// fromDaemon derives the per-layer metrics the daemon's own counters and
// /proc give over the measured work.
func (r *record) fromDaemon() map[string]metric {
	c := r.daemon.counters
	reads := c["stppd_reads_ingested_total"]
	return map[string]metric{
		"wal.fsyncs_per_batch":      ratio(c["stppd_wal_fsyncs_total"], r.posts),
		"wal.bytes_per_read":        ratio(c["stppd_wal_bytes_total"], reads),
		"serve.snapshots_per_kread": ratio(1000*c["stppd_snapshots_total"], c["stppd_reads_consumed_total"]),
		"serve.snapshot.mean_ms":    ratio(1000*c["stppd_snapshot_latency_seconds_sum"], c["stppd_snapshot_latency_seconds_count"]),
		"serve.stalls":              count(c["stppd_ingest_stalls_total"], r.posts),
		"serve.stall_s":             count(c["stppd_ingest_stall_seconds_total"], r.posts),
		"serve.cpu_ns_per_read":     ratio(r.daemon.cpuNs, reads),
		"sched.steals":              count(c["stppd_sched_steals_total"], r.posts),
	}
}

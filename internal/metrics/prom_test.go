package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/epcgen2"
)

func epcOf(n int) epcgen2.EPC {
	var e epcgen2.EPC
	e[0] = byte(n >> 8)
	e[1] = byte(n)
	return e
}

// TestKendallTauProperties is the rank-correlation companion check: τ = 1
// exactly on identical permutations, τ = −1 on full reversals, symmetric
// in its arguments, and bounded to [−1, 1].
func TestKendallTauProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		want := make([]epcgen2.EPC, n)
		for i, p := range rng.Perm(n) {
			want[i] = epcOf(p)
		}
		got := append([]epcgen2.EPC(nil), want...)
		rng.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })

		tau, err := KendallTau(got, want)
		if err != nil {
			t.Fatal(err)
		}
		if tau < -1 || tau > 1 {
			t.Fatalf("tau %v out of [-1,1]", tau)
		}
		rev, err := KendallTau(want, got)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tau-rev) > 1e-12 {
			t.Fatalf("not symmetric: %v vs %v", tau, rev)
		}
		same, err := KendallTau(want, want)
		if err != nil || same != 1 {
			t.Fatalf("identical: tau %v err %v, want 1", same, err)
		}
		reversed := make([]epcgen2.EPC, n)
		for i := range want {
			reversed[i] = want[n-1-i]
		}
		opp, err := KendallTau(reversed, want)
		if err != nil || opp != -1 {
			t.Fatalf("reversed: tau %v err %v, want -1", opp, err)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0.1, 1, 10)
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	buckets, sum, count := h.snapshot()
	if count != 5 {
		t.Fatalf("count %d, want 5", count)
	}
	if math.Abs(sum-55.65) > 1e-9 {
		t.Fatalf("sum %v, want 55.65", sum)
	}
	// le buckets: 0.1 catches 0.05 and 0.1; 1 catches 0.5; 10 catches 5;
	// +Inf catches 50.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, buckets[i], w, buckets)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	_, sum, count := h.snapshot()
	if count != 8000 {
		t.Fatalf("count %d, want 8000", count)
	}
	if math.Abs(sum-8*1000*2) > 1e-6 { // mean of 0..4 is 2
		t.Fatalf("sum %v, want 16000", sum)
	}
}

func TestPromWriterLintClean(t *testing.T) {
	w := &PromWriter{}
	w.Counter("test_reads_total", "Reads accepted.")
	w.Value(42)
	w.Gauge("test_queue_depth", "Current queue depth per session.")
	w.ValueL(3, "session", "s000001")
	w.ValueL(9, "session", "s000002")
	h := NewHistogram(0.001, 0.01, 0.1)
	h.Observe(0.005)
	h.Observe(2)
	w.Histogram("test_latency_seconds", "Latency.", h)
	w.Gauge("test_uptime_seconds", `has "quotes" and \slashes`)
	w.Value(1.5)
	body, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := LintProm(body); err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"# TYPE test_reads_total counter",
		"# TYPE test_latency_seconds histogram",
		`test_queue_depth{session="s000001"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 2`,
		"test_latency_seconds_count 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestLintPromRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"sample before TYPE", "foo 1\n"},
		{"duplicate series", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"duplicate TYPE", "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n"},
		{"unknown type", "# TYPE foo whatever\nfoo 1\n"},
		{"negative counter", "# TYPE foo counter\nfoo -1\n"},
		{"bad value", "# TYPE foo gauge\nfoo abc\n"},
		{"bad label name", "# TYPE foo gauge\nfoo{0bad=\"x\"} 1\n"},
		{"unterminated label", "# TYPE foo gauge\nfoo{a=\"x} 1\n"},
		{"interleaved families", "# TYPE a gauge\n# TYPE b gauge\na 1\nb 2\na 3\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
		{"missing inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"decreasing buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"},
		{"inf bucket != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\n"},
	}
	for _, tc := range cases {
		if err := LintProm([]byte(tc.body)); err == nil {
			t.Errorf("%s: lint accepted\n%s", tc.name, tc.body)
		}
	}
	if err := LintProm([]byte("# TYPE ok gauge\nok{a=\"b\",c=\"d\"} 1\nok 2\n\n# free comment\n")); err != nil {
		t.Errorf("clean body rejected: %v", err)
	}
}

package main

import (
	"math"
	"strings"
	"testing"
)

// runs returns one reads/s result per value, all under one name.
func runs(name string, readsPerSec ...float64) []Bench {
	var out []Bench
	for _, v := range readsPerSec {
		out = append(out, Bench{Name: name, Metrics: map[string]float64{"reads/s": v}})
	}
	return out
}

// TestCheckGate is the gate's decision table: stppbench's compare cases
// with reads/s in place of a higher-is-better metric, plus the
// benchmarks present on one side only. A regression, a benchmark the
// parent ran and the change did not, and a gated name nothing measured
// fail; everything else passes.
func TestCheckGate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"equal", []float64{100, 101, 99}, []float64{100, 102, 98}, "within-bound"},
		{"drop past the bound", []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{"drop within the bound", []float64{100, 101, 99}, []float64{86, 87, 85}, "within-bound"},
		{"rise past the bound", []float64{100, 101, 99}, []float64{120, 121, 119}, "improved"},
		{"noisy parent", []float64{50, 100, 150, 200}, []float64{140, 150, 160, 170}, "unresolved"},
		{"noisy but every run better", []float64{60, 70, 80, 90}, []float64{100, 110, 120, 130}, "improved"},
		{"noisy and every run worse", []float64{100, 110, 120, 130}, []float64{60, 70, 80, 90}, "regressed"},
		{"only the parent ran it", []float64{100, 101, 99}, nil, "missing"},
		{"only the change runs it", nil, []float64{100, 101, 99}, "new"},
	} {
		rec := &Record{Base: runs("BenchmarkX", tc.base...), Change: runs("BenchmarkX", tc.change...)}
		got := checkGate(rec, []string{"BenchmarkX"})
		if len(got) != 1 {
			t.Fatalf("%s: %d verdicts, want 1", tc.name, len(got))
		}
		if got[0].Verdict != tc.want {
			t.Errorf("%s: verdict %s (worse %+.3f), want %s", tc.name, got[0].Verdict, got[0].Worse, tc.want)
		}
		if wantFail := tc.want == "regressed" || tc.want == "missing"; got[0].fails() != wantFail {
			t.Errorf("%s: fails() = %v, want %v", tc.name, got[0].fails(), wantFail)
		}
	}
}

// TestCheckGateCoversSubBenchmarks: a gated name gates itself and every
// sub-benchmark under it and nothing else, and a gated name that matched
// no run on either side fails rather than passing unmeasured.
func TestCheckGateCoversSubBenchmarks(t *testing.T) {
	rec := &Record{
		Base: append(append(runs("BenchmarkWAL/fsync=never", 100), runs("BenchmarkWAL/fsync=always", 50)...),
			runs("BenchmarkWALGroupCommit", 10)...),
		Change: append(runs("BenchmarkWAL/fsync=never", 100), runs("BenchmarkWALGroupCommit", 1)...),
	}
	var got []string
	for _, v := range checkGate(rec, []string{"BenchmarkWAL", "BenchmarkGone"}) {
		got = append(got, v.Name+" "+v.Verdict)
	}
	want := "BenchmarkWAL/fsync=never within-bound,BenchmarkWAL/fsync=always missing,BenchmarkGone unmeasured"
	if strings.Join(got, ",") != want {
		t.Fatalf("verdicts = %v, want %s", got, want)
	}
}

// TestParseSides: the side lines label the runs after them, a run of a
// benchmark that failed leaves no line, and a result before any side is
// an error.
func TestParseSides(t *testing.T) {
	rec, err := parse(strings.NewReader(`side: base
goos: linux
cpu: Test CPU
BenchmarkOK-2   10   100 ns/op   5000 reads/s
BenchmarkBad-2  10   100 ns/op   5000 reads/s
PASS
side: change
goos: linux
BenchmarkOK-2   10   100 ns/op   5000 reads/s
--- FAIL: BenchmarkBad
FAIL
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Base) != 2 || len(rec.Change) != 1 {
		t.Fatalf("parsed %+v", rec)
	}
	verdicts := checkGate(rec, []string{"BenchmarkOK", "BenchmarkBad"})
	if len(verdicts) != 2 || verdicts[0].fails() || !verdicts[1].fails() {
		t.Fatalf("verdicts = %+v, want BenchmarkOK to pass and BenchmarkBad to fail", verdicts)
	}
	if _, err := parse(strings.NewReader("BenchmarkOK-2 10 100 ns/op\n")); err == nil {
		t.Fatal("a result before any side line parsed")
	}
}

// TestParseBaseSource: the base-source line Make writes ahead of the
// runs lands in the record, and a file without one leaves it empty.
func TestParseBaseSource(t *testing.T) {
	for in, want := range map[string]string{
		"base-source: change\nside: base\nBenchmarkOK-2 10 100 ns/op\n": "change",
		"base-source: base\nside: base\nBenchmarkOK-2 10 100 ns/op\n":   "base",
		"side: base\nBenchmarkOK-2 10 100 ns/op\n":                      "",
	} {
		rec, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if rec.BaseSource != want {
			t.Errorf("%q: base source %q, want %q", in, rec.BaseSource, want)
		}
	}
}

// TestParseBenchLineStripsProcs pins the -GOMAXPROCS suffix handling the
// gate's name matching depends on.
func TestParseBenchLineStripsProcs(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkWALAppend/fsync=always-8   	    9007	    304498 ns/op	    840746 reads/s")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkWALAppend/fsync=always" {
		t.Fatalf("name = %q, want procs suffix stripped", b.Name)
	}
	if b.Metrics["reads/s"] != 840746 {
		t.Fatalf("reads/s = %v", b.Metrics["reads/s"])
	}
}

// TestQuartilesMatchPythonExclusive holds the copied quartile rule to the
// cases stppbench's own test pins: Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{4}, 4, 4, 4},
	} {
		q := quartiles(tc.xs)
		if math.Abs(q[0]-tc.q1) > 1e-12 || math.Abs(q[1]-tc.m) > 1e-12 || math.Abs(q[2]-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v; want %v %v %v", tc.xs, q, tc.q1, tc.m, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v; want (8.25-2.75)/5.5 = 1", got)
	}
}

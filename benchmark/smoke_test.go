package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload for about a second on tiny inputs against
// a freshly built stppd, traced, and checks the declaration and the
// output agree: every metric BENCHMARK.json names is reported (with its
// sample count, flagged when the sample cannot support it), nothing
// failed, and the names and counts stay inside the limits BENCHMARK.json
// keeps.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs stppd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json declares workload %s, the harness has none", w.Name)
		}
	}
	if len(declared) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %v, the harness runs %d workloads", declared, len(workloads))
	}

	work := t.TempDir()
	e := &env{stppd: filepath.Join(work, "stppd"), work: work, seed: 1, seconds: 1, size: tinySizes}
	if err := buildStppd(root, e.stppd); err != nil {
		t.Fatal(err)
	}
	traces := t.TempDir()
	for _, w := range workloads {
		res, err := runWorkload(e, w, spec, true, traces)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: fail_ratio %d/%d: %v", w.name, res.Failed, res.Attempted, res.Errors)
		}
		if m := missing(spec, res, true); len(m) > 0 {
			t.Errorf("%s: no value for %v", w.name, m)
		}
		for name, v := range res.Metrics {
			if !v.Supported {
				t.Logf("%s %s unsupported at n=%d", w.name, name, v.N)
			}
		}
		if _, err := os.Stat(filepath.Join(traces, w.name+".trace.json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

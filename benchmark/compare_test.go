package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func runsOf(name string, correct bool, values ...float64) []*result {
	var out []*result
	for _, v := range values {
		out = append(out, &result{Correct: correct, Metrics: map[string]metric{name: {Value: v}}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	for _, tc := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"equal", "lat_ms", []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, "within-bound"},
		{"slower past the bound", "lat_ms", []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, "regressed"},
		{"slower within the bound", "lat_ms", []float64{10, 10.1, 9.9}, []float64{10.8, 10.9, 10.7}, "within-bound"},
		{"faster past the bound", "lat_ms", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "improved"},
		{"throughput drop", "rps", []float64{100, 101, 99}, []float64{85, 86, 84}, "regressed"},
		{"throughput rise", "rps", []float64{100, 101, 99}, []float64{120, 121, 119}, "improved"},
		{"noisy parent", "lat_ms", []float64{5, 10, 15, 20}, []float64{14, 15, 16, 17}, "unresolved"},
		{"noisy but every run better", "lat_ms", []float64{10, 12, 14, 16}, []float64{5, 6, 7, 8}, "improved"},
	} {
		a := runSet{"w": runsOf(tc.metric, true, tc.a...)}
		b := runSet{"w": runsOf(tc.metric, true, tc.b...)}
		got := compareRuns(spec, a, b)
		if len(got) != 1 {
			t.Fatalf("%s: %d verdicts, want 1", tc.name, len(got))
		}
		if got[0].Verdict != tc.want {
			t.Errorf("%s: verdict %s (worse %+.3f), want %s", tc.name, got[0].Verdict, got[0].Worse, tc.want)
		}
	}
}

func TestCompareSkipsFailedRunsAndUnsharedWorkloads(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "lat_ms", Better: "lower", Bound: 0.1}}}
	a := runSet{"w": append(runsOf("lat_ms", true, 10, 10), runsOf("lat_ms", false, 99)...), "only-a": runsOf("lat_ms", true, 1)}
	b := runSet{"w": runsOf("lat_ms", true, 10, 10)}
	got := compareRuns(spec, a, b)
	if len(got) != 1 || got[0].Workload != "w" || got[0].NA != 2 || got[0].Verdict != "within-bound" {
		t.Fatalf("got %+v; want one within-bound verdict for w over 2 correct runs", got)
	}
}

func TestLoadRunsWalksDirectories(t *testing.T) {
	dir := t.TempDir()
	for i, v := range []float64{1, 2, 3} {
		sub := filepath.Join(dir, "run"+string(rune('a'+i)))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(stamp{Seed: 1, Workloads: map[string]*result{"w": runsOf("m", true, v)[0]}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "results.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	set, err := loadRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := values(set["w"], "m"); len(got) != 3 {
		t.Fatalf("loaded %v, want three runs", got)
	}
	if _, err := loadRuns(t.TempDir()); err == nil {
		t.Error("an empty directory loaded without error")
	}
}

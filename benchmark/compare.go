package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// compareMain is `stppbench compare A B`: A and B are each a results.json
// or a directory searched for them, one file per run. For every workload
// and end-to-end metric it prints each side's quartiles and a verdict
// against the metric's bound, and exits 1 if any metric regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: stppbench compare A B")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := loadRuns(args[1])
	if err != nil {
		return fail(err)
	}
	regressed := false
	for _, v := range compareRuns(spec, a, b) {
		v.print(os.Stdout)
		regressed = regressed || v.Verdict == "regressed"
	}
	if regressed {
		return 1
	}
	return 0
}

// runSet is every run of one side: workload → one result per run.
type runSet map[string][]*result

// loadRuns reads path as one results.json or every results.json below it.
func loadRuns(path string) (runSet, error) {
	set := runSet{}
	add := func(file string) error {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var st stamp
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		for w, res := range st.Workloads {
			set[w] = append(set[w], res)
		}
		return nil
	}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if !info.IsDir() {
		return set, add(path)
	}
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() != "results.json" {
			return err
		}
		return add(p)
	})
	if err == nil && len(set) == 0 {
		err = fmt.Errorf("%s holds no results.json", path)
	}
	return set, err
}

// verdict is one workload × metric comparison.
type verdict struct {
	Workload, Metric string
	Unit             string
	A, B             [3]float64 // first quartile, median, third quartile
	NA, NB           int        // runs on each side
	Worse            float64    // share by which B's median is worse than A's
	Bound            float64
	Verdict          string
}

// compareRuns applies the benchmark's rule to every end-to-end metric of
// every workload both sides ran: B regressed when its median is worse
// than A's by more than the bound; when either side's own spread exceeds
// the bound the comparison is unresolved, unless every B run is better
// than every A run.
func compareRuns(spec *benchSpec, a, b runSet) []verdict {
	var names []string
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []verdict
	for _, w := range names {
		for _, s := range spec.EndToEnd {
			va, vb := values(a[w], s.Name), values(b[w], s.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict{Workload: w, Metric: s.Name, Unit: s.Unit, NA: len(va), NB: len(vb), Bound: s.Bound}
			v.A[0], v.A[1], v.A[2] = quartiles(va)
			v.B[0], v.B[1], v.B[2] = quartiles(vb)
			v.Worse = s.worse(v.A[1], v.B[1])
			switch {
			case spread(va) > s.Bound || spread(vb) > s.Bound:
				v.Verdict = "unresolved"
				if allBetter(s, va, vb) {
					v.Verdict = "improved"
				}
			case v.Worse > s.Bound:
				v.Verdict = "regressed"
			case -v.Worse > s.Bound:
				v.Verdict = "improved"
			default:
				v.Verdict = "within-bound"
			}
			out = append(out, v)
		}
	}
	return out
}

// values collects one metric across runs, skipping failed runs.
func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}

// allBetter reports whether every B value beats every A value.
func allBetter(s metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if s.worse(x, y) >= 0 {
				return false
			}
		}
	}
	return true
}

func (v verdict) print(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-15s A %.4g/%.4g/%.4g (n=%d)  B %.4g/%.4g/%.4g (n=%d) %s  worse %+.1f%% (bound %.0f%%)  %s\n",
		v.Workload, v.Metric, v.A[0], v.A[1], v.A[2], v.NA, v.B[0], v.B[1], v.B[2], v.NB, v.Unit,
		100*v.Worse, 100*v.Bound, v.Verdict)
}

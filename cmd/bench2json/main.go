// bench2json judges the repository's bench gate. `make bench` runs the
// gated benchmarks in interleaved pairs on the parent commit and on the
// working tree and appends every run to one benchstat-compatible file, in
// which a `side: base` or `side: change` line labels the runs after it,
// and a `base-source: change` or `base-source: base` line records whether
// the parent's binary was built from the working tree's benchmark source
// (like for like) or, when that did not compile there, from its own:
//
//	bench2json -gate 'BenchmarkA BenchmarkB/sub' -o bench.json bench.txt
//
// prints one verdict line per gated benchmark, writes both sides' runs and
// the verdicts as JSON, and exits 2 when any gated benchmark failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Bench is one result line: the benchmark's name with its sub-benchmark
// path and without the -GOMAXPROCS suffix, b.N, and unit → value for
// every "value unit" pair (ns/op, B/op, allocs/op, reads/s, …).
type Bench struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Record is the emitted document: which benchmark source the parent's
// binary was built from, every run of each side and the gate's verdicts.
type Record struct {
	BaseSource string    `json:"base_source"`
	Base       []Bench   `json:"base"`
	Change     []Bench   `json:"change"`
	Verdicts   []verdict `json:"verdicts"`
}

func parse(r io.Reader) (*Record, error) {
	rec := &Record{}
	var side *[]Bench
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		switch line := strings.TrimSpace(sc.Text()); {
		case line == "side: base":
			side = &rec.Base
		case line == "side: change":
			side = &rec.Change
		case strings.HasPrefix(line, "base-source: "):
			rec.BaseSource = strings.TrimPrefix(line, "base-source: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok || side == nil {
				return nil, fmt.Errorf("unparseable or unlabeled benchmark line: %q", line)
			}
			*side = append(*side, b)
		}
	}
	return rec, sc.Err()
}

func parseBenchLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends to parallel-capable
	// benchmarks (the digits after the final dash).
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}

// The gate judges reads/s, which every gated benchmark reports. bound is
// the share by which the change's median may fall below the parent's,
// and the largest interquartile spread either side may have for that
// comparison to count.
const (
	gateMetric = "reads/s"
	bound      = 0.15
)

// verdict is the gate's judgement of one benchmark: the first quartile,
// median and third quartile of reads/s on each side, and the share by
// which the change's median falls below the parent's.
type verdict struct {
	Name    string     `json:"name"`
	Base    [3]float64 `json:"base"`
	Change  [3]float64 `json:"change"`
	NBase   int        `json:"n_base"`
	NChange int        `json:"n_change"`
	Worse   float64    `json:"worse"`
	Verdict string     `json:"verdict"`
}

// fails reports whether the verdict fails the gate: a regression, a
// benchmark the parent ran and the change did not, or a gated name that
// nothing measured.
func (v verdict) fails() bool {
	return v.Verdict == "regressed" || v.Verdict == "missing" || v.Verdict == "unmeasured"
}

// checkGate judges every benchmark a gated name covers, on either side:
// the name itself and its sub-benchmarks.
func checkGate(rec *Record, gate []string) []verdict {
	var out []verdict
	for _, g := range gate {
		var names []string
		for _, b := range slices.Concat(rec.Base, rec.Change) {
			if (b.Name == g || strings.HasPrefix(b.Name, g+"/")) && !slices.Contains(names, b.Name) {
				names = append(names, b.Name)
			}
		}
		if len(names) == 0 {
			names = []string{g}
		}
		for _, name := range names {
			out = append(out, judge(name, values(rec.Base, name), values(rec.Change, name)))
		}
	}
	return out
}

// values collects one benchmark's reads/s across runs.
func values(runs []Bench, name string) (out []float64) {
	for _, b := range runs {
		if v, ok := b.Metrics[gateMetric]; ok && b.Name == name {
			out = append(out, v)
		}
	}
	return out
}

// judge applies the rule stppbench's compare applies to end-to-end
// metrics: the change regressed when its median is worse than the
// parent's by more than the bound; when either side's own spread exceeds
// the bound the comparison is unresolved, unless every change run is
// worse (regressed) or better (improved) than every parent run.
func judge(name string, base, change []float64) verdict {
	v := verdict{Name: name, Base: quartiles(base), Change: quartiles(change), NBase: len(base), NChange: len(change)}
	if len(base) > 0 && len(change) > 0 {
		v.Worse = 1 - v.Change[1]/v.Base[1]
	}
	switch {
	case len(base) == 0 && len(change) == 0:
		v.Verdict = "unmeasured"
	case len(change) == 0:
		v.Verdict = "missing"
	case len(base) == 0:
		v.Verdict = "new"
	case spread(base) > bound || spread(change) > bound:
		v.Verdict = "unresolved"
		if slices.Max(change) < slices.Min(base) {
			v.Verdict = "regressed"
		} else if slices.Max(base) < slices.Min(change) {
			v.Verdict = "improved"
		}
	case v.Worse > bound:
		v.Verdict = "regressed"
	case -v.Worse > bound:
		v.Verdict = "improved"
	default:
		v.Verdict = "within-bound"
	}
	return v
}

// quartiles returns the first quartile, the median and the third quartile
// of xs (zeros when xs is empty) by the rule of Python's
// statistics.quantiles(xs, n=4), the "exclusive" method: stppbench's
// rule, copied because that harness is a separate main module.
func quartiles(xs []float64) (q [3]float64) {
	s := slices.Sorted(slices.Values(xs))
	n, m := len(s), len(s)+1
	for i := range q {
		switch n {
		case 0:
		case 1:
			q[i] = s[0]
		default:
			j := min(max((i+1)*m/4, 1), n-1)
			delta := (i+1)*m - j*4
			q[i] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
		}
	}
	return q
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(q[1])
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench2json: ")
	gate := flag.String("gate", "", "space-separated gated benchmark names; a name also gates its sub-benchmarks")
	out := flag.String("o", "bench.json", "where to write the JSON record")
	flag.Parse()
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	rec, err := parse(f)
	if err != nil {
		log.Fatal(err)
	}
	rec.Verdicts = checkGate(rec, strings.Fields(*gate))
	failed := false
	for _, v := range rec.Verdicts {
		fmt.Printf("%-40s base %.4g/%.4g/%.4g (n=%d)  change %.4g/%.4g/%.4g (n=%d) %s  worse %+.1f%% (bound %.0f%%)  %s  base-source=%s\n",
			v.Name, v.Base[0], v.Base[1], v.Base[2], v.NBase, v.Change[0], v.Change[1], v.Change[2], v.NChange,
			gateMetric, 100*v.Worse, 100*bound, v.Verdict, rec.BaseSource)
		failed = failed || v.fails()
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "bench2json: the bench gate failed")
		os.Exit(2)
	}
}

// Command stppbench is the repository's benchmark. It builds stppd from
// the checkout it runs in, starts it as a child process on loopback with
// a durable data directory, and drives it over HTTP through four
// workloads from at most two connections, holding every final order to
// an offline replay of the same reads. A traced run also replays each
// workload's request bodies in process through every layer's public
// functions and reports where the time goes. See README.md.
//
// Run it from the repository root through benchmark/run.sh:
//
//	bash benchmark/run.sh --workload aisle-firehose --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all -seed 1 -out DIR
//	bash benchmark/run.sh compare DIR_A DIR_B
//
// A single-workload run prints one "workload metric value unit n=samples"
// line per metric and ends with a one-line JSON summary: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. -all runs
// every workload traced and writes DIR/results.json and one
// DIR/<workload>.trace.json per workload. The exit status is non-zero if
// any request failed or any final order diverged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("stppbench", flag.ContinueOnError)
	name := fs.String("workload", "", "the workload to run, as BENCHMARK.json names it")
	seed := fs.Int64("seed", 1, "input seed: 1 is the dev seed, 2 the holdout seed")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (0 = BENCHMARK.json run_seconds)")
	traceFlag := fs.Int("trace", 0, "1 = also replay the traced per-layer ladder and report the per-layer metrics")
	all := fs.Bool("all", false, "run every workload traced; write results.json and the traces to -out")
	out := fs.String("out", "", "directory for results.json and traces (default .bench_build/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	// The benchmark measures the daemon of the checkout it runs in; a
	// directory without one is an error, not a run.
	for _, need := range []string{"go.mod", "cmd/stppd", "BENCHMARK.json"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return fail(fmt.Errorf("%s is not a checkout of the repository: %w", root, err))
		}
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	var list []*workload
	if *all {
		list = workloads
	} else if w, ok := findWorkload(*name); ok {
		list = []*workload{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q (give -workload or -all)", *name))
	}
	traced := *all || *traceFlag == 1
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	build := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	e := &env{seed: *seed, seconds: *seconds, size: fullSizes}
	e.stppd = filepath.Join(build, "stppd")
	if err := buildStppd(root, e.stppd); err != nil {
		return fail(err)
	}
	e.work = filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.work)

	st := stamp{Seed: *seed, Seconds: *seconds, Workloads: map[string]*result{}}
	ok := true
	var last *result
	for _, w := range list {
		res, err := runWorkload(e, w, spec, traced, *out)
		if err != nil {
			return fail(err)
		}
		if m := missing(spec, res, traced); len(m) > 0 {
			return fail(fmt.Errorf("%s reported no value for %v", w.name, m))
		}
		printResult(os.Stdout, w.name, spec, res)
		st.Workloads[w.name] = res
		ok = ok && res.Correct
		last = res
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return fail(err)
	}
	if !*all {
		line, err := json.Marshal(summaryLine(spec, last, traced))
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "stppbench:", err)
	return 2
}

# The repository's tier-1 gates (mirrors .github/workflows/ci.yml) plus
# the bench gate, which compares the working tree with its parent commit.

# The commit `make bench` compares the working tree against: the parent by
# default, which in CI's pull-request merge checkout is the base branch's
# tip and on a push to main the previous main commit. On a branch with
# several commits, name the fork point instead: make bench BASE=main.
BASE ?= HEAD^

# The gate runs every GATE benchmark in PAIRS interleaved base/change
# pairs, each run pinned to BENCHTIME, and judges each one's reads/s by
# median and quartiles (cmd/bench2json). A name gates itself and its
# sub-benchmarks: the in-process ingest, snapshot-cadence, multi-tag
# detection, recovery, WAL append and endless-stream paths, and the full
# HTTP ingest path.
PAIRS ?= 10
BENCHTIME := 1s
GATE := BenchmarkDaemonIngest BenchmarkHTTPIngest BenchmarkSnapshotCadence/snapshots=32 BenchmarkBlockedDetect BenchmarkRecovery BenchmarkWALAppend BenchmarkEndlessStream

# Recorded once per side next to the gated runs, not gated: the other
# snapshot cadences, streaming vs batch, the sharded aisle, the four-session
# airport census with its retained heap, the segment-DTW
# kernel (whole alignment and isolated column fill), checkpointed-recovery
# flatness, group-commit throughput, and the multi-session cold boot with
# its retained heap and data-directory size.
RECORD := BenchmarkSnapshotCadence/snapshots=1 BenchmarkSnapshotCadence/snapshots=8 BenchmarkStreamingVsBatch BenchmarkShardedAisle BenchmarkShardedPortals BenchmarkSegmentedAlign BenchmarkSegmentFill BenchmarkCheckpointedRecovery BenchmarkWALGroupCommit BenchmarkMultiSessionRecovery

# The base commit's checkout, a git worktree that lives only while
# `make bench` runs.
BASE_TREE := .bench-base

.PHONY: test build bench fmt vet

build:
	go build ./...

# benchmark/ is a nested module the root ./... cannot reach; vet and
# short-test it explicitly so internal API changes cannot break it unseen,
# then run its TestSmoke, which -short skips: it builds stppd and runs
# every workload once on tiny inputs.
test: fmt build
	go vet ./...
	go test ./...
	GOARCH=386 go test ./...
	cd benchmark && GOWORK=off go vet ./... && GOWORK=off go test -short ./...
	cd benchmark && GOWORK=off go test -run TestSmoke ./...

# fmt fails when gofmt would change any file, as the CI gofmt step does.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# bench builds one test binary from BASE (in a git worktree) and one from
# the working tree, runs them as described above, and writes the record
# to fixed, untracked names: bench.txt (benchstat-compatible, each run
# under a `side: base` or `side: change` line), bench.json (both sides'
# runs and the verdicts), and bench.cpu.pprof, a CPU profile of the
# change's BenchmarkDaemonIngest, with bench.test to symbolize it. Each
# benchmark runs in its own process: go test splits a -bench pattern at
# `/`, so one alternation cannot select a sub-benchmark of one benchmark
# and every sub-benchmark of another. A benchmark that fails on either
# side fails the target; so does a gated benchmark that regressed or
# that the base ran and the change did not. Both binaries run the same
# benchmark source: the working tree's bench_test.go is copied over the
# base's before base.test is built, so a benchmark whose workload changed
# is timed on the same work on both sides. When that copy does not compile
# against the base's code, the base keeps its own file; the first line of
# bench.txt, `base-source: change` or `base-source: base`, records which,
# and bench2json repeats it on every verdict line.
bench:
	rm -f bench.txt bench.json
	rm -rf $(BASE_TREE) && git worktree prune
	git worktree add --detach $(BASE_TREE) $(BASE)
	cp bench_test.go $(BASE_TREE)/bench_test.go
	if (cd $(BASE_TREE) && go test -c -o base.test .); then \
		echo "base-source: change" > bench.txt; \
	else \
		echo "bench: the working tree's bench_test.go does not build at $(BASE); the base runs its own (not like for like)"; \
		(cd $(BASE_TREE) && git checkout -- bench_test.go && go test -c -o base.test .) && \
		echo "base-source: base" > bench.txt; \
	fi
	go test -c -o bench.test .
	@set -e; \
	run() { \
		side=$$1 dir=$$2 bin=$$3; shift 3; \
		for name; do \
			echo "side: $$side" >> bench.txt; \
			(cd $$dir && ./$$bin -test.run '^$$' -test.bench "^$$(echo $$name | sed 's|/|$$/^|g')$$" \
				-test.benchmem -test.benchtime $(BENCHTIME) -test.timeout 10m) >> bench.txt \
				|| { tail -n 20 bench.txt; echo "$$side: $$name failed"; exit 1; }; \
		done; \
	}; \
	for i in $$(seq $(PAIRS)); do \
		echo "bench: pair $$i of $(PAIRS)"; \
		if [ $$((i % 2)) = 1 ]; then \
			run base $(BASE_TREE) base.test $(GATE); run change . bench.test $(GATE); \
		else \
			run change . bench.test $(GATE); run base $(BASE_TREE) base.test $(GATE); \
		fi; \
	done; \
	echo "bench: recording the rest"; \
	run base $(BASE_TREE) base.test $(RECORD); run change . bench.test $(RECORD)
	git worktree remove --force $(BASE_TREE)
	./bench.test -test.run '^$$' -test.bench '^BenchmarkDaemonIngest$$' -test.benchtime 2s \
		-test.cpuprofile bench.cpu.pprof > /dev/null
	go run ./cmd/bench2json -gate '$(GATE)' -o bench.json bench.txt

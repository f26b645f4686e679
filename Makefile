# The repository's tier-1 gates (mirrors .github/workflows/ci.yml) plus
# the recorded benchmark step that tracks the performance trajectory.

PR := 15

# The key hot-path benchmarks recorded per PR: the snapshot-cadence
# evidence, streaming vs batch, the daemon ingest path, the isolated
# blocked multi-tag detection pass, the segment-DTW kernel (whole
# alignment and isolated column fill), the WAL append/recovery paths,
# checkpointed-recovery flatness and group-commit throughput, and the
# endless-stream lifecycle flatness.
BENCH_PATTERN := BenchmarkSnapshotCadence|BenchmarkStreamingVsBatch|BenchmarkDaemonIngest|BenchmarkBlockedDetect|BenchmarkShardedAisle|BenchmarkSegmentedAlign|BenchmarkSegmentFill|BenchmarkWALAppend|BenchmarkRecovery|BenchmarkCheckpointedRecovery|BenchmarkWALGroupCommit|BenchmarkEndlessStream

# The regression gate: fail the bench step if any of these benchmarks'
# reads/s drops more than 15% against the committed pre-PR baseline
# (bench/baseline_$(PR).txt, recorded on the parent commit).
GATE := BenchmarkDaemonIngest,BenchmarkSnapshotCadence/snapshots=32,BenchmarkBlockedDetect,BenchmarkRecovery,BenchmarkWALAppend,BenchmarkEndlessStream

.PHONY: test build bench fmt vet

build:
	go build ./...

# benchmark/ is a nested module the root ./... cannot reach; vet and
# short-test it explicitly so internal API changes cannot break it unseen.
test: build
	go vet ./...
	go test ./...
	cd benchmark && GOWORK=off go vet ./... && GOWORK=off go test -short ./...

fmt:
	gofmt -l .

vet:
	go vet ./...

# bench runs the key benchmarks once with -benchmem, archives the raw
# benchstat-compatible text as BENCH_$(PR).txt, and merges it with the
# committed pre-change baseline (bench/baseline_$(PR).txt) into
# BENCH_$(PR).json — the machine-readable before/after record for this
# PR. The same invocation gates the ingest/detection/recovery hot paths:
# a >15% reads/s regression vs the baseline fails the target. A second
# short run captures a CPU profile of the daemon ingest hot path as
# BENCH_$(PR).cpu.pprof (with the repro.test binary needed to symbolize
# it), so every recorded number ships with the profile that explains it.
# -benchtime is pinned so iteration counts don't swing fsync-bound
# benchmarks run to run. CI uploads all of it as artifacts.
bench:
	go test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -benchtime 2s -count 1 . | tee BENCH_$(PR).txt
	go run ./cmd/bench2json -pr $(PR) -baseline bench/baseline_$(PR).txt -current BENCH_$(PR).txt \
		-gate '$(GATE)' -max-regression 0.15 \
		-note "baseline = pre-PR-$(PR) tree (adaptive publish cadence, group-commit flush window and per-session worker cap still configurable); current = one fixed publish cadence, group commit without a window, all-core session engines" \
		> BENCH_$(PR).json
	go test -run xxx -bench 'BenchmarkDaemonIngest$$' -benchtime 2s -count 1 \
		-cpuprofile BENCH_$(PR).cpu.pprof -o repro.test .

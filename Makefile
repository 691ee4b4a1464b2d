# Convenience targets; everything is plain `go` underneath.

# section prints one top-level section of a -report JSON file (the
# encoder indents top-level keys by two spaces), so an assertion can
# target the health or the errors section alone:
# $(call section,health,RUN_REPORT.json).
section = sed -n '/^  "$(1)": {/,/^  }/p' $(2)

.PHONY: all build vet sljcheck lint lint-hotpath test race test-race bench bench-json bench-smoke bench-stream bench-gate bench-baseline report health-smoke serve-smoke paper-digest experiments figures fuzz clean

all: build lint test

build:
	go build ./...

vet:
	go vet ./...

# Project-specific analyzers (allocfree, maporder, metricnames, nondet,
# pooldiscipline, syncmisuse) — see DESIGN.md §8 and §13 and
# `go run ./cmd/sljcheck -list`. One invocation type-checks the module
# exactly once and runs every analyzer — per-package and whole-program
# alike — over that shared program, so adding analyzers does not add
# load time.
sljcheck:
	go run ./cmd/sljcheck ./...

lint: vet sljcheck

# Print the current //slj:hotpath reachability set (one function per
# line with its discovery chain) — diff it between commits to review
# hot-path growth.
lint-hotpath:
	go run ./cmd/sljcheck -hotpath ./...

test:
	go test ./...

race:
	go test -race -timeout 45m ./internal/extract/ ./internal/bayes/ ./internal/dbn/ ./internal/track/ ./internal/parallel/ ./internal/obs/ ./internal/serve/ .

# Full race sweep — every package, including the parallel engine's golden
# tests. Slower than `race`; run before merging concurrency changes.
test-race:
	go test -race -timeout 45m ./...

bench:
	go test -bench=. -benchmem ./...

# Snapshot the whole benchmark suite (ns/op, B/op, allocs/op) into a
# dated JSON file for before/after perf comparisons.
bench-json:
	go test -bench . -benchmem -run '^$$' ./... | tee bench_output.txt | go run ./cmd/benchjson > BENCH_$$(date +%F).json

# CI smoke: a single-iteration benchmark pass over the hot packages plus
# a run report from an instrumented mini evaluation. Produces
# BENCH_smoke.json and RUN_REPORT_smoke.json (+ .md) for artifact upload.
bench-smoke:
	go test -bench . -benchmem -benchtime 1x -run '^$$' . ./internal/parallel/ ./internal/thinning/ | tee bench_output.txt | go run ./cmd/benchjson > BENCH_smoke.json
	go run ./cmd/sljgen -out smoke_data -train 2 -test 1
	go run ./cmd/sljeval -data smoke_data -workers 4 -report RUN_REPORT_smoke.json > /dev/null
	rm -rf smoke_data

# Benchmark regression gate: run the per-stage hot-path benchmarks and
# fail if allocs/op or ns/op regressed against the committed baseline.
# Allocations are gated tightly (deterministic per toolchain, +10% and
# 2 allocs of slack); wall time loosely (+500%, CI machines vary). Refresh
# the baseline with `make bench-baseline` when a PR legitimately changes
# the numbers, and commit BENCH_baseline.json alongside the change.
bench-gate:
	go test -bench 'BenchmarkStage' -benchmem -benchtime 10x -run '^$$' . | tee bench_output.txt | \
		go run ./cmd/benchjson -compare BENCH_baseline.json -max-allocs-regress 10 -allocs-slack 2 -max-ns-regress 500 > BENCH_gate.json

bench-baseline:
	go test -bench 'BenchmarkStage' -benchmem -benchtime 10x -run '^$$' . | go run ./cmd/benchjson > BENCH_baseline.json

# Streaming-corpus benchmark + round trip: snapshot the streaming
# evaluation benchmarks (frames/s and peak decoded-clip residency land
# in the JSON's "extra" field) into BENCH_stream.json, then prove the
# save -> stream -> evaluate path end to end on a generated corpus.
bench-stream:
	go test -bench BenchmarkStreamEvaluate -benchmem -benchtime 1x -run '^$$' . | tee bench_output.txt | go run ./cmd/benchjson > BENCH_stream.json
	go run ./cmd/sljgen -out stream_data -train 2 -test 1
	go run ./cmd/sljeval -data stream_data -stream -workers 4 -report RUN_REPORT_stream.json > /dev/null
	rm -rf stream_data

# End-of-run report + dashboard smoke: run an instrumented mini
# evaluation with the sampler on, render one sljtop frame against its
# live /debug endpoints while the job is still running, render the
# finished run's report offline with sljtop -snapshot, and leave
# RUN_REPORT.json + RUN_REPORT.md behind for artifact upload. Binaries
# are prebuilt so sljtop's connect retries race the evaluation, not the
# compiler.
report:
	mkdir -p .report_bin
	go build -o .report_bin/ ./cmd/sljeval ./cmd/sljtop
	go run ./cmd/sljgen -out report_data -train 4 -test 6
	./.report_bin/sljeval -data report_data -workers 4 -metrics 127.0.0.1:6070 \
		-sample-interval 100ms -report RUN_REPORT.json > /dev/null & \
	EVAL=$$!; \
	./.report_bin/sljtop -addr 127.0.0.1:6070 -once -connect-timeout 10s > sljtop_once.txt; \
	TOP=$$?; \
	cat sljtop_once.txt; \
	wait $$EVAL; \
	EV=$$?; \
	./.report_bin/sljtop -snapshot RUN_REPORT.json > sljtop_report.txt; \
	SNAP=$$?; \
	rm -rf report_data .report_bin; \
	test $$TOP -eq 0 && test $$EV -eq 0 && test $$SNAP -eq 0
	grep -q "stage.classify.ns" sljtop_once.txt
	grep -q "stage.classify.ns" sljtop_report.txt
	test -s RUN_REPORT.json && test -s RUN_REPORT.md
	$(call section,errors,RUN_REPORT.json) | grep -q '"total"'
	$(call section,health,RUN_REPORT.json) | grep -q '"verdict"'

# Flight-recorder smoke: generate a corpus, corrupt one test clip, and
# run an instrumented streaming evaluation with skip-corrupt ingest.
# The run must finish, journal the decode failure, and report a
# degraded health verdict with the decode class attributed — the same
# trace ID correlating the health and errors sections of
# RUN_REPORT_health.json.
health-smoke:
	go run ./cmd/sljgen -out health_data -train 2 -test 3
	BAD=$$(ls -d health_data/test/*/ | head -1); \
	echo "not a ppm" > $$BAD/background.ppm
	go run ./cmd/sljeval -data health_data -stream -skip-corrupt -workers 2 \
		-sample-interval 100ms -log health_smoke.log \
		-report RUN_REPORT_health.json > /dev/null
	rm -rf health_data
	$(call section,health,RUN_REPORT_health.json) | grep -q '"verdict": "degraded"'
	$(call section,health,RUN_REPORT_health.json) | grep -q '"name": "decode_errors"'
	$(call section,errors,RUN_REPORT_health.json) | grep -q '"class": "decode"'
	TRACE=$$($(call section,errors,RUN_REPORT_health.json) | grep -o '"trace": "t[0-9]*"' | head -1); \
	test -n "$$TRACE" && $(call section,health,RUN_REPORT_health.json) | grep -qF "$$TRACE"

# Serving-layer smoke: start sljserve on an ephemeral port, drive it
# with sljload, and assert the serving contract end to end — clean run
# fully served with zero pool-leak gauges, overload run shed with 503,
# SIGTERM drains and exits 0. See scripts/serve_smoke.sh.
serve-smoke:
	sh scripts/serve_smoke.sh

# Results gate: rerun every experiment and compare a digest of its output
# (artifact SHA-256 plus stdout with the wall-clock values masked) with
# the committed PAPER_DIGEST.txt, so a change that moves any accuracy,
# confusion matrix or figure fails. About 2 minutes. A change that is
# meant to move results regenerates the file with
# `sh scripts/paper_digest.sh > PAPER_DIGEST.txt` and says why.
paper-digest:
	sh scripts/paper_digest.sh PAPER_DIGEST.txt

# Regenerate every paper figure/result at full size (see DESIGN.md §4).
experiments:
	go run ./cmd/sljexp -exp all -artifacts figures/ | tee results_full.txt

figures:
	go run ./cmd/sljexp -exp fig1,fig5,fig7,fig8 -artifacts figures/

# Short fuzz pass over the codecs and the model loader (both take
# untrusted bytes and are fuzz-hardened).
fuzz:
	go test -fuzz FuzzDecodePGM -fuzztime 10s ./internal/imaging/
	go test -fuzz FuzzDecodePPM -fuzztime 10s ./internal/imaging/
	go test -fuzz FuzzDecodePBM -fuzztime 10s ./internal/imaging/
	go test -fuzz FuzzReader -fuzztime 10s ./internal/video/
	go test -fuzz FuzzLoad -fuzztime 10s ./internal/dbn/

clean:
	rm -rf figures/ results_full.txt sljcheck_findings.json test_output.txt bench_output.txt smoke_data BENCH_smoke.json BENCH_gate.json RUN_REPORT_smoke.json RUN_REPORT_smoke.md stream_data BENCH_stream.json RUN_REPORT_stream.json RUN_REPORT_stream.md report_data .report_bin RUN_REPORT.json RUN_REPORT.md sljtop_once.txt sljtop_report.txt health_data RUN_REPORT_health.json RUN_REPORT_health.md health_smoke.log

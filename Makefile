# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep them in sync.

SHELL := /bin/bash

GO        ?= go
BENCHARGS ?= -bench=. -benchmem -benchtime=500ms -run='^$$' -timeout 30m
# Sim/model-side benchmarks that never touch the solver hot paths; their
# median ratio normalizes machine-speed differences in bench-check.
ANCHORS   ?= BenchmarkAnalyticalCollectiveTime,BenchmarkIterationEstimate,BenchmarkTable1CostModel,BenchmarkPipelineSim64Chunks,BenchmarkNPULevelSim,BenchmarkThemisSchedule,BenchmarkTacosSynthesis
# Core-count-sensitive benchmarks: reported, not gated (their ns/op
# scales with the host's cores, which the anchors cannot cancel).
# BenchmarkFrontier is gateable since frontier columns became sequential
# warm chains.
SKIPGATE  ?= BenchmarkMinimizeParallel,BenchmarkEngineOptimizeParallel

# Coverage gate: per-package statement floor over internal/... from one
# merged cross-package profile. Fuzz smoke: every native fuzz target gets
# a short budget on each push so the corpora stay exercised.
COVERFLOOR  ?= 70
FUZZTIME    ?= 10s
# pkg:target pairs — `go test -fuzz` takes one target per package run.
FUZZTARGETS ?= ./internal/core:FuzzParseSpec ./internal/codesign:FuzzParseSpec \
	./internal/validate:FuzzParseSpec ./internal/cluster:FuzzParseSpec \
	./internal/task:FuzzTaskParse \
	./internal/opt:FuzzOptionsValidate ./internal/opt:FuzzSeparableProject \
	./internal/store:FuzzStoreLog ./internal/store:FuzzStoreOpen

# Where profile writes its pprof output.
PROFILEDIR ?= profiles

# The project's own vettool (cmd/libra-lint). CI caches this path keyed
# on the lint sources so unchanged PRs skip the rebuild.
LINTBIN ?= bin/libra-lint

.PHONY: build build-examples test race lint lint-build lint-baseline \
	lint-selftest bench bench-baseline bench-check \
	bench-record profile cover fuzz-smoke validate validate-baseline \
	validate-check smoke e2ebench-check

build:
	$(GO) build ./...

# build-examples compiles every example program. `go build ./...` already
# covers them, but CI calls this target explicitly so a module-layout
# change that drops examples from the build can never let them rot
# silently.
build-examples:
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the full static gate CI blocks on: gofmt, go vet, staticcheck
# (pinned in CI; skipped locally when not installed), and the project's
# own analyzers via the vet -vettool protocol. See the "Static analysis"
# section of the README for what libra-lint enforces and how to suppress
# a finding.
lint: lint-build
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping (CI runs it pinned at v0.4.7)"; fi
	$(GO) vet -vettool=$(abspath $(LINTBIN)) ./...

lint-build:
	$(GO) build -o $(LINTBIN) ./cmd/libra-lint

# lint-baseline prints every libra-lint finding without failing (exit 0):
# the triage entry point when digging out of a backlog — fix or suppress
# from the list, then graduate to the blocking `make lint`.
lint-baseline: lint-build
	$(LINTBIN) -triage ./...

# lint-selftest proves the pipeline can still fail: libra-lint must exit
# non-zero on the seeded-violation package under internal/lint/testdata
# (invisible to ./... — `go list` never descends into testdata).
lint-selftest: lint-build
	@if $(LINTBIN) ./internal/lint/testdata/selftest >/dev/null 2>&1; then \
		echo "lint-selftest: libra-lint exited 0 on seeded violations"; exit 1; \
	else echo "lint-selftest: seeded violations detected, pipeline can fail"; fi

# bench prints the benchmark suite; bench-baseline regenerates the
# committed baseline the CI bench job gates against. Regenerate it on the
# machine class you care about after intentional performance changes.
bench:
	$(GO) test $(BENCHARGS)

bench-baseline:
	$(GO) test $(BENCHARGS) | $(GO) run ./cmd/benchdiff parse -out BENCH_baseline.json
	@echo "wrote BENCH_baseline.json"

# bench-check is exactly what CI runs: measure, snapshot to BENCH_ci.json,
# and fail on >25% regression vs the committed baseline (anchor-normalized
# so machine-speed differences cancel without masking suite-wide
# regressions).
bench-check:
	set -o pipefail; $(GO) test $(BENCHARGS) | $(GO) run ./cmd/benchdiff parse -out BENCH_ci.json
	$(GO) run ./cmd/benchdiff compare -baseline BENCH_baseline.json -current BENCH_ci.json -threshold 0.25 -anchors "$(ANCHORS)" -skip "$(SKIPGATE)"

# bench-record appends the last bench-check measurement (BENCH_ci.json) to
# the BENCH_history.jsonl perf log with vs-baseline ratios. LABEL tags the
# run (branch, PR number, commit).
bench-record:
	$(GO) run ./cmd/benchdiff record -current BENCH_ci.json -baseline BENCH_baseline.json -history BENCH_history.jsonl -label "$(LABEL)"

# profile captures CPU and heap profiles from the solver hot-path
# benchmarks (the multistart fold, the warm-chained frontier sweep and
# the cold-solve request mix) into $(PROFILEDIR). Inspect with `go tool pprof $(PROFILEDIR)/libra.test
# $(PROFILEDIR)/cpu.pprof`. CI uploads the directory as an artifact.
# To profile a live server instead, start libra-serve with
# `-debug-addr 127.0.0.1:6060` and point pprof at
# http://127.0.0.1:6060/debug/pprof/ (off by default; serve it on a
# loopback or otherwise non-public address).
profile:
	mkdir -p $(PROFILEDIR)
	$(GO) test -bench='^(BenchmarkMinimizeParallel|BenchmarkFrontier|BenchmarkColdSolveMix)$$' -benchmem \
		-benchtime=1s -run='^$$' -timeout 10m \
		-cpuprofile $(PROFILEDIR)/cpu.pprof -memprofile $(PROFILEDIR)/mem.pprof \
		-o $(PROFILEDIR)/libra.test .
	@echo "profiles in $(PROFILEDIR)/: cpu.pprof mem.pprof (binary: libra.test)"

# cover enforces the per-package statement-coverage floor over
# internal/... from one merged cross-package profile.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) run ./cmd/covercheck -profile cover.out -prefix libra/internal/ -floor $(COVERFLOOR)

# fuzz-smoke runs every native fuzz target briefly ($(FUZZTIME) each);
# `go test -fuzz` takes one package at a time, so targets are pkg:name
# pairs.
fuzz-smoke:
	@for pt in $(FUZZTARGETS); do \
		pkg=$${pt%%:*}; target=$${pt##*:}; \
		echo "fuzzing $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz $$target -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# smoke boots libra-serve on an OS-assigned port (with the persistent
# result cache enabled) and drives the async job API end to end through
# the client SDK (examples/jobsclient): health probe, sync /v2/tasks
# optimize, /v2/jobs frontier submission, SSE progress stream, result
# decode — then scrapes /healthz and /metrics and asserts the core
# series actually moved. It then hard-kills the server and reboots it on
# the same -cache-dir with a -warmup file: the warmup replay must be
# answered from disk (libra_store_hits_total > 0, zero new solver
# solves for the warmed spec). What CI's server-smoke step runs.
SMOKEDIR := $(or $(RUNNER_TEMP),/tmp)
smoke:
	@set -e; \
	$(GO) build -o $(SMOKEDIR)/libra-serve ./cmd/libra-serve; \
	$(GO) build -o $(SMOKEDIR)/jobsclient ./examples/jobsclient; \
	rm -rf $(SMOKEDIR)/libra-cache; \
	$(SMOKEDIR)/libra-serve -addr 127.0.0.1:0 -print-addr -cache-dir $(SMOKEDIR)/libra-cache \
		> $(SMOKEDIR)/libra-serve.addr 2> $(SMOKEDIR)/libra-serve.log & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -s $(SMOKEDIR)/libra-serve.addr ] && break; sleep 0.1; done; \
	addr=$$(head -n1 $(SMOKEDIR)/libra-serve.addr); \
	if [ -z "$$addr" ]; then echo "libra-serve never came up:"; cat $(SMOKEDIR)/libra-serve.log; exit 1; fi; \
	echo "smoke: libra-serve at $$addr"; \
	$(SMOKEDIR)/jobsclient -addr "$$addr"; \
	echo "smoke: checking that a done job's event stream ends past its log"; \
	id=$$(curl -fsS "$$addr/v2/jobs?status=done&limit=1" | grep -o '"id": *"[^"]*"' | head -n1 | cut -d'"' -f4); \
	if [ -z "$$id" ]; then echo "smoke: no done job listed"; exit 1; fi; \
	curl -fsS -m 5 "$$addr/v2/jobs/$$id/events?from=100000" > /dev/null || \
		{ echo "smoke: event stream of done job $$id did not end"; exit 1; }; \
	echo "smoke: checking /healthz"; \
	curl -fsS "$$addr/healthz" | grep -q '"ok"'; \
	echo "smoke: checking /metrics"; \
	curl -fsS "$$addr/metrics" > $(SMOKEDIR)/libra-metrics.txt; \
	for series in libra_http_requests_total libra_tasks_total \
		libra_engine_cache_misses_total libra_jobs_submitted_total \
		libra_store_puts_total; do \
		grep -q "^$$series" $(SMOKEDIR)/libra-metrics.txt || \
			{ echo "smoke: /metrics missing $$series"; exit 1; }; \
	done; \
	echo "smoke: metrics ok"; \
	echo "smoke: hard-killing the server (crash, not shutdown)"; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	printf '%s\n' '{"kind":"optimize","spec":{"topology":"RI(4)_SW(8)","budget_gbps":300,"workloads":[{"preset":"DLRM"}]}}' \
		> $(SMOKEDIR)/libra-warmup.jsonl; \
	$(SMOKEDIR)/libra-serve -addr 127.0.0.1:0 -print-addr -cache-dir $(SMOKEDIR)/libra-cache \
		-warmup $(SMOKEDIR)/libra-warmup.jsonl \
		> $(SMOKEDIR)/libra-serve2.addr 2> $(SMOKEDIR)/libra-serve2.log & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -s $(SMOKEDIR)/libra-serve2.addr ] && break; sleep 0.1; done; \
	addr=$$(head -n1 $(SMOKEDIR)/libra-serve2.addr); \
	if [ -z "$$addr" ]; then echo "restarted libra-serve never came up:"; cat $(SMOKEDIR)/libra-serve2.log; exit 1; fi; \
	echo "smoke: restarted at $$addr (warm cache + warmup replay)"; \
	curl -fsS "$$addr/v1/optimize" -d '{"topology":"RI(4)_SW(8)","budget_gbps":300,"workloads":[{"preset":"DLRM"}]}' \
		| grep -q '"cached": true' || { echo "smoke: restarted server did not answer from cache"; exit 1; }; \
	curl -fsS "$$addr/metrics" > $(SMOKEDIR)/libra-metrics2.txt; \
	hits=$$(awk '/^libra_store_hits_total/ {s+=$$NF} END {print s+0}' $(SMOKEDIR)/libra-metrics2.txt); \
	if [ "$$hits" -lt 1 ]; then echo "smoke: libra_store_hits_total = $$hits after restart, want > 0"; exit 1; fi; \
	solves=$$(awk '/^libra_solver_solves_total/ {s+=$$NF} END {print s+0}' $(SMOKEDIR)/libra-metrics2.txt); \
	if [ "$$solves" -ne 0 ]; then echo "smoke: restarted server ran $$solves solves, want 0"; exit 1; fi; \
	echo "smoke: persistent cache ok (store hits $$hits, solves $$solves)"

# e2ebench-check vets and tests the end-to-end benchmark module. It is a
# module of its own (outside `go test ./...`) that imports the task and
# server layers, so an API change there must still build it.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# validate runs the analytical-vs-simulator conformance matrix and fails
# when any scenario diverges beyond the committed tolerance.
validate:
	$(GO) run ./cmd/libra -validate

# validate-baseline regenerates the committed golden divergence report.
# Re-run after intentional estimator or simulator changes and commit the
# result.
validate-baseline:
	$(GO) run ./cmd/libra -validate -baseline VALIDATION_baseline.json

# validate-check is exactly what CI runs: regenerate the report and fail
# on any divergence drift from the committed baseline (or any tolerance
# violation).
validate-check:
	$(GO) run ./cmd/libra -validate -check VALIDATION_baseline.json

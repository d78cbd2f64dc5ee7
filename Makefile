# Reproduction build targets. Everything is stdlib-only Go; no network.

GO ?= go

.PHONY: all build test test-race bench bench-json bench-check lint-bench serve-smoke workgen-smoke cluster-smoke figures demos lint check clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Per-figure benchmark harness (reduced run counts; see cmd/reprofigs for
# the full protocol).
bench:
	$(GO) test -bench=. -benchmem -run XXX ./...

# Refresh BENCH_core.json with the scheduler, wire, cluster, and lint
# numbers. The file's committed baseline_ns_per_op section (the
# pre-event-engine per-slot loop) is preserved; only current_ns_per_op
# and the speedups are rewritten — every benchmark the file carries must
# therefore be piped in here, or a refresh would drop it.
bench-json:
	{ $(GO) test -bench 'SchedulerSlot|ReweightStorm' -benchtime=1s -run XXX . ; \
	  $(GO) test -bench 'WirePath$$' -benchtime=1s -run XXX ./internal/serve ; \
	  $(GO) test -bench ClusterMigration -benchtime=1s -run XXX ./internal/cluster ; \
	  $(GO) test -bench 'LintModule|CFGBuild' -benchtime=3x -run XXX ./internal/analysis ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_core.json

# Perf regression gate: rerun the hot-path benchmarks and fail if any is
# more than 25% slower than the committed BENCH_core.json numbers. Never
# writes the file.
bench-check:
	{ $(GO) test -bench 'SchedulerSlot|ReweightStorm' -benchtime=1s -run XXX . ; \
	  $(GO) test -bench 'WirePath$$' -benchtime=1s -run XXX ./internal/serve ; } \
		| $(GO) run ./cmd/benchjson -check -out BENCH_core.json

# Lint-suite perf gate: one warm full-module pd2lint pass (load,
# typecheck, all 12 checks, interprocedural call graph and per-function
# CFGs included) must stay within 50% of the committed LintModule ns/op
# in BENCH_core.json, and a fresh CFG construction pass over every
# module function (CFGBuild) within 50% of its committed number.
# 3 iterations so the process-wide stdlib import cache is warm — the
# load-once architecture is exactly what this benchmark guards. The
# wider margin (vs bench-check's 25%) absorbs the higher variance of a
# full-module load. Never writes the file.
lint-bench:
	$(GO) test -bench 'LintModule|CFGBuild' -benchtime=3x -run XXX ./internal/analysis \
		| $(GO) run ./cmd/benchjson -check -max-regress 50 -out BENCH_core.json

# Serve-layer smoke: race-instrumented pd2d + pd2load closed loop,
# SIGTERM drain, snapshot, restore (scripts/serve_smoke.sh; the CI gate).
serve-smoke:
	./scripts/serve_smoke.sh

# Workload-generator smoke: pathological template -> record -> replay
# digest compare against race-instrumented binaries (the CI trace gate).
workgen-smoke:
	./scripts/workgen_smoke.sh

# Cluster smoke: race-instrumented 3-node pd2d cluster + pd2cluster
# coordinator; routed load, a live migration under load, a kill -9
# primary failover, and a full digest verification of every shard
# (scripts/cluster_smoke.sh; the CI cluster gate).
cluster-smoke:
	./scripts/cluster_smoke.sh

# Regenerate every evaluation artifact with the paper's 61-run protocol.
figures:
	$(GO) run ./cmd/reprofigs -runs 61 -out out

# Render the paper's worked examples (Figs. 1-9) to the terminal.
demos:
	$(GO) run ./cmd/pd2trace

# Invariant checks (all twelve: the AST pattern checks, the dataflow
# checks heapkey/gocapture/eventexhaust, the interprocedural checks
# hotalloc/detflow/lockorder, and the CFG flow-sensitive pooled-record
# check ownxfer — see docs/LINT.md). Strict mode also flags stale
# //lint:allow directives so the allowlist cannot rot.
lint:
	$(GO) run ./cmd/pd2lint -strict-suppress ./...

check: build lint
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)
	$(GO) test ./...

clean:
	rm -rf out test_output.txt bench_output.txt

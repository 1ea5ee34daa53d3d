# EdgeSurgeon build/verification targets.

GO ?= go

.PHONY: all build fmt-check vet loc loc-check test test-short test-race golden-update fuzz-smoke bench bench-test bench-smoke bench-planner-smoke bench-frontier-smoke bench-replan-smoke bench-serve-smoke serve-smoke chaos-smoke cluster-smoke client-smoke backpressure-stress plane-cpu-matrix experiments examples cover clean

all: build vet test

build:
	$(GO) build ./...

# Fails, listing them, when any tracked Go file (bench/ included) is not
# gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Non-test Go lines per package (internal/*, cmd/*, the root facade) and in
# total (examples/ included) — the figure ROADMAP's "net non-test LOC" items are judged by.
loc_of = find $(1) -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
loc_total = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
loc:
	@for d in . internal/* cmd/*; do \
		printf '%6d  %s\n' $$($(call loc_of,$$d)) $$d; \
	done
	@printf '%6d  total (non-test, bench/ excluded)\n' $$($(loc_total))

# The size ratchet CI runs: prints `make loc`, then fails when internal/joint
# or the total has grown past the figures below. They are what `make loc`
# printed when last lowered; a PR that deletes code lowers them, and one that
# has to add code raises them where a reviewer sees it.
LOC_MAX_JOINT = 2604
LOC_MAX_TOTAL = 21407
loc-check: loc
	@joint=$$($(call loc_of,internal/joint)); total=$$($(loc_total)); \
	if [ $$joint -gt $(LOC_MAX_JOINT) ] || [ $$total -gt $(LOC_MAX_TOTAL) ]; then \
		echo "loc-check: internal/joint $$joint (max $(LOC_MAX_JOINT)), total $$total (max $(LOC_MAX_TOTAL))"; exit 1; \
	fi

test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Re-record internal/joint/testdata/golden_digests.txt (one decisions and one
# bookkeeping digest per scenario x route cell) from this build's plans. A
# change that keeps plans bit-identical leaves the file
# untouched — CI runs this and fails on any diff — and a change that moves
# plans on purpose commits the new file and says how many cells moved in each
# half. amd64 only, as the test is (FMA fusion moves float bits elsewhere).
golden-update:
	$(GO) test ./internal/joint -run TestGoldenPlanDigests -update -count=1

# Race-check the concurrent paths: the planner's one fan-out (frontier
# tables certified on a GOMAXPROCS-wide pool, then read by any number of
# planners) through joint, surgery and the serve control plane, and the
# networked data plane (wire codec, deadline pacer, agent scheduling,
# dispatcher, subprocess loopback cluster). The simulator starts no
# goroutine and is not listed.
test-race:
	$(GO) test -race -timeout 30m ./internal/joint/... ./internal/surgery/... ./internal/telemetry/... ./internal/serve/...
	$(GO) test -race -timeout 15m ./internal/wire/... ./internal/pace/... ./internal/agent/... ./internal/client/... ./internal/cluster/...

# Short fuzzing pass over the optimizer kernels (~10 s per target): the
# surgery optimizer must never panic or emit invalid plans, frontier
# lookups (certified and on-demand tables) must stay bit-identical to the
# optimizer at snapped shares, the
# deadline-aware allocator must keep shares in [0, 1] summing to <= 1, and
# end-to-end planning of arbitrary decoded scenarios (monolithic and
# sharded routes both) must never panic or break the share invariants.
fuzz-smoke:
	$(GO) test ./internal/surgery -run '^$$' -fuzz FuzzSurgeryOptimize -fuzztime 10s
	$(GO) test ./internal/surgery -run '^$$' -fuzz FuzzFrontierLookup -fuzztime 10s
	$(GO) test ./internal/alloc -run '^$$' -fuzz FuzzAllocDeadline -fuzztime 10s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz FuzzTraceDecode -fuzztime 10s
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzPlanScenario -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s
	$(GO) test ./internal/client -run '^$$' -fuzz FuzzClientDecode -fuzztime 10s

# One benchmark per evaluation artifact (E1-E21) plus kernel microbenchmarks,
# including the data plane's (wire Conn send/round trip, outbox drain).
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmark harness is a module of its own (bench/go.mod), so the root
# module's ./... never reaches its tests (manifest drift against
# BENCHMARK.json, load generator, stats, spans); this target does.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# Fast perf guard for CI: one iteration of the simulator event-loop and
# multi-user scaling benchmarks and of the planner's two reconciliation
# passes, a hundred 64 KiB activation hops (codec pair, then a real
# agent), with allocation accounting, and two hundred paced waits at each of
# three lengths beside a time.Sleep baseline (read overshoot-p50-us).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineEvents|BenchmarkE4' -benchtime=1x -benchmem . ./internal/sim
	$(GO) test -run '^$$' -bench 'BenchmarkReconcile' -benchtime=1x -benchmem ./internal/joint
	$(GO) test -run '^$$' -bench 'BenchmarkInfer64kRoundTrip|BenchmarkAgentInfer64k' -benchtime=100x -benchmem ./internal/wire ./internal/agent
	$(GO) test -run '^$$' -bench 'BenchmarkClockWait' -benchtime=200x ./internal/pace

# Planner perf guard for CI: the CI-sized E23 scale study (one dual-arm
# size plus one sharded-only size) writing BENCH_planner.json, with the
# metric keys dashboards consume asserted present.
bench-planner-smoke:
	$(GO) run ./cmd/experiments -run E23 -quick -bench-json BENCH_planner.json \
		-require-metrics E23.speedup_vs_monolithic,E23.gap_worst_pct,E23.users_max,E23.sharded_wallclock_sec,E23.frontier_wallclock_sec

# Frontier perf guard for CI: the CI-sized E24 frontier-table study (build
# + plan timings with the tables/no-tables parity cross-check), merged
# into the same BENCH_planner.json, with its metric keys asserted present.
bench-frontier-smoke:
	$(GO) run ./cmd/experiments -run E24 -quick -bench-json BENCH_planner.json \
		-require-metrics E24.speedup_vs_legacy,E24.frontier_wallclock_sec,E24.build_sec,E24.hit_rate_pct,E24.parity_ok

# Replan-latency guard for CI: the CI-sized E26 delta-replan study (full
# replan vs dirty-single-shard delta replan from the same previous plan),
# merged into the same BENCH_planner.json, with its metric keys asserted
# present.
bench-replan-smoke:
	$(GO) run ./cmd/experiments -run E26 -quick -bench-json BENCH_planner.json \
		-require-metrics E26.replan_speedup,E26.delta_gap_pct,E26.full_replan_sec,E26.delta_replan_sec,E26.users_max

# Control-plane smoke for CI: replay the bundled drifting + faulty trace
# through cmd/edgeserved and pin the hysteresis policy's full-replan count
# (the replay is deterministic, so the golden value is exact).
serve-smoke:
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace cmd/edgeserved/testdata/smoke-trace.jsonl \
		-policy hysteresis -expect-full-replans 4

# Crash-recovery smoke for CI: replay the same trace through the
# snapshot/WAL-backed control plane, kill the process after samples 3 and
# 8 plus throttle the planner and corrupt a sample, then assert the
# recovered run's journal, metrics and final plan are byte-identical to a
# crash-free rerun (-verify-recovery exits non-zero on any divergence).
# The in-process harness test repeats the invariant with three crashes
# and checks zero goroutine leaks after the runtimes close.
chaos-smoke:
	$(GO) test ./internal/serve -run 'TestRunChaos' -count=1
	rm -rf .chaos-smoke-dir
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace cmd/edgeserved/testdata/smoke-trace.jsonl \
		-policy hysteresis -snapshot-dir .chaos-smoke-dir \
		-chaos crash:3 -chaos crash:8 -chaos slow:12:15:0.001 -chaos corrupt:5:nan \
		-verify-recovery -expect-full-replans 4
	rm -rf .chaos-smoke-dir

# Data-plane guard for CI: the CI-sized E27 loopback-cluster study (real
# edgeagent processes over TCP under each replanning policy) writing its
# model-ms p50/p99 latencies and replan/push counters into BENCH_serve.json,
# with the metric keys asserted present. (Throughput is bench/'s to measure:
# E27's closed loop sleeps the modelled physics, so its rps was workers /
# (modelled latency x TimeScale) — the clock scale, not the dispatcher.)
bench-serve-smoke:
	$(GO) run ./cmd/experiments -run E27 -quick -bench-json BENCH_serve.json \
		-require-metrics E27.p50_ms_hysteresis,E27.p99_ms_hysteresis,E27.ok_frac_hysteresis,E27.full_replans_hysteresis

# Live data-plane smoke for CI: boot the wire dispatcher plus one real
# edgeagent process per server on loopback TCP, drive a bounded closed
# loop, and gate on the success fraction and on the handoff path actually
# running (crossed > 0).
cluster-smoke:
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-listen 127.0.0.1:0 -timescale 0.002 -requests 200 -workers 4 -min-ok-frac 0.95
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-listen 127.0.0.1:0 -timescale 0.002 -requests 200 -workers 4 -min-ok-frac 0.95 \
		-stall-clients 2

# Client-library smoke for CI: the internal/client unit suite (handshake
# taxonomy, per-call deadlines, cancellation, typed errors, in-flight
# window) under the race detector.
client-smoke:
	$(GO) test -race -count=1 ./internal/client

# Backpressure stress suite for CI: misbehaving clients (stalled, slow,
# byte-at-a-time, mid-frame disconnect, reconnect storm) against a live
# dispatcher, plus the dispatcher lifecycle regressions, all under -race.
backpressure-stress:
	$(GO) test -race -count=1 -timeout 10m \
		-run 'TestStalled|TestSlowReader|TestByteAtATime|TestMidFrame|TestReconnectStorm|TestCloseWithIdle|TestAgentDeathMidRequest|TestDuplicateHello|TestOutbox|TestNonLoopback' \
		./internal/agent ./internal/cluster

# The data-plane packages at both P counts write combining behaves
# differently on: at one P every sender woken together shares a Write, at two
# an idle P may take a yielded sender at once and it writes alone.
plane-cpu-matrix:
	$(GO) test -cpu 1,2 -count=1 ./internal/wire ./internal/client ./internal/agent

# Regenerate every table and figure of the reconstructed evaluation.
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/video-analytics
	$(GO) run ./examples/smart-factory
	$(GO) run ./examples/adaptive-bandwidth
	$(GO) run ./examples/calibrated-pipeline

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...

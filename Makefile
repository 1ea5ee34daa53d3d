# EdgeSurgeon build/verification targets.

GO ?= go

.PHONY: all build fmt-check vet loc loc-check test test-short test-race golden-update fuzz-smoke bench bench-test bench-smoke bench-planner-smoke bench-frontier-smoke bench-replan-smoke bench-serve-smoke serve-smoke chaos-smoke cluster-smoke client-smoke backpressure-stress plane-cpu-matrix cross-build experiments examples cover clean

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
# has to add code raises them where a reviewer sees it. The total went
# 21407 -> 21469 for wire version 2: queueing blobs of 16 KiB or more by
# reference and gathering them into one writev (the segment list, its
# rollback and the gathered write) bought plane_offload rps +17 % at the
# median on a 2-vCPU host, 10 of 10 alternating pairs. It went 21469 ->
# 21509 when requests became clock events: the call record and its
# pending-map handoffs in the dispatcher, the agent's outbox and lane
# events, and pacer callbacks replace a goroutine per request on both
# sides of the plane (plane_local rps +24 % at the median on the same
# host, 10 of 10 alternating pairs). It went 21509 -> 21566 when a client
# call became a pooled record: the one finish rule over the pending map,
# one expiry timer per client and its scan, and the full-window wait
# replace a channel, a timer and two selects per call in client.Do. It went
# 21566 -> 21362 when frontier tables began filling on first lookup and
# the table certifier and its build pool were deleted. It went 21362 ->
# 20877 when the experiments became one ordered spec list on shared
# runners (the Registry/QuickVariants/IDs triple, the per-experiment
# report boilerplate and six copies of a strategy x point sweep, three of a
# window replay and two of the fading control-plane cluster deleted) and
# cmd/edgesim with config's strategy-name resolver folded into
# `experiments -scenario`. It went 20877 -> 20811 when serve.RunChaos
# became the one replay driver: edgeserved's -recover flag, its second
# ingest loop, its refusal rules and its private verifier, the WAL's
# string-float sample codec (wireSample and its two float helpers),
# RecoverFrom and WriteSnapshotOnly as separate entry points, and the
# preamble New and snapshot recovery each repeated were deleted. It went
# 20811 -> 20626 when the serving stack kept one option per decision:
# edgeserved's nine per-field policy flags and buildPolicy (now -policy
# presets), -seed, -stall-clients and the clusterOpts copy of
# cluster.Config; cluster's stalled-client injector (stall.go) and its four
# backpressure pass-through fields; DriveConfig.Users and .CallTimeout;
# the dispatcher's five test-only limit fields and their accessors;
# agent.Config.ID with edgeagent -id; and Policy.PlannerOpsPerSec. It went
# 20626 -> 20278 (internal/joint 2582 -> 2575) when a plan went live one
# way: serve's hand-written recovery install, its uninstrumented planner
# copy and second frontier rebuild, joint.Dispatcher.SetPlanner, the
# agent dispatcher's copies of the runtime's rates, clock and plan, and
# internal/nn's caller-less convolutional front-end (conv.go, ConvStage).
# It went 20278 -> 19849 (internal/joint 2575 -> 2536) when the planner
# kept one planning problem: the min-sum and min-max allocators and
# alloc.MaxLatency, joint's AllocatorKind, AccuracyFloor and
# DeviceEnergyBudgetJ, surgery's device-energy cap and ThetaGrid, sim's
# Warmup and retry knobs (now constants), serve.Config.Metrics,
# ExhaustiveAssignment.Inner, faults.Generate and its GenConfig, and the
# caller-less stats helpers (Series.Max/Min/FracBelow/CDF, Histogram,
# Meter.Hits, Breakdown) and telemetry's Histogram.Mean. It went 19849 ->
# 19322 (internal/joint 2536 -> 2513) when each rule kept one copy and the
# functions no binary links went: the allocator's one-user fast path, the
# baselines' own initial assignment, the evacuator's ObserveUplinks/
# ObserveHealth, the second windowed-rate mean, both daemons' pprof routes,
# the second profile-file writer, edgeserved -frontier and
# cluster.Config.Frontier, and the caller-less helpers TestFunctionsReachable
# now keeps out. It went 19322 -> 19321 (internal/joint unchanged) when the
# live plane kept one record per fact: the agent dispatcher's copy of server
# health, its second shutdown flag, its per-role handshake steps and pushTo,
# the two TimeScale defaults, edgeserved's firstSet and hard-coded refusal
# list (one flag-to-mode table now refuses every mode's foreign flags, and
# both commands exit through one point), surgery's own min/max, and the
# unread server profiles callers built for sim.RecordTrace. It went 19321 ->
# 19277 (internal/joint unchanged) when the control plane's recoverable
# state became one record: serve.Runtime's eleven loose state fields, the
# field-by-field snapshot capture and restore, the second quarantine-standing
# type, the recovering flag and Recover's WAL-without-snapshot branch. It
# went 19241 -> 19147 (internal/joint unchanged) when the simulator began
# reading each exit's costs from surgery's one walk (Plan.Path) instead of
# its own copy of the cost model, and client.Config lost DialTimeout and the
# ExpectServers/ExpectUsers handshake check. It went 19147 -> 18995
# (internal/joint unchanged) when each wire message was described once, by
# one field walk that encodes, decodes and bounds it, in place of a
# hand-kept encode and decode method per message. It went 18995 -> 18851
# (internal/joint unchanged) when the simulator kept one queueing rule: the
# FCFS station's job queue, its compaction and closure jobs, the no-fault
# fast path beside the fault-aware stage integrator, the Discipline switch at
# each stage hand-off, and netmodel.TransferTime were deleted. It went 18851
# -> 18789 (internal/joint unchanged) when nn.MatMul became one serial loop
# (its row-block goroutines and their threshold deleted) and the simulator
# built its components directly (sim.Cluster and ClusterByServer deleted),
# net of the refusal of a task timeout under ProcessorSharing. It went
# 18789 -> 18723 (internal/joint unchanged) when cluster.Drive lost its
# config struct and its rate, and edgeserved lost three one-value flags and
# its two flag.Value types, and 18723 -> 18660 when /metrics came to render
# Registry.State and the registry's test-only walks went. It went 18660 ->
# 18700 (internal/joint 2511 -> 2510) when frontier tables stopped keying
# on the link rate: the absolute bandwidth axis, the lookup's TxSec
# re-derivation and rate refusal, and netmodel's refusal of non-finite
# rates bought control_replay rps +57 % at the median on a 2-vCPU host, 10
# of 10 alternating pairs.
LOC_MAX_JOINT = 2511
LOC_MAX_TOTAL = 18700
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
# bookkeeping digest per scenario x route cell) from this build's plans,
# internal/experiments/testdata/report_digests.txt (one digest of each
# deterministic report's rendered text: E1-E8, E10-E20, E22, E25) from the
# shape tests that run those reports, and internal/sim/testdata/run_digests.txt
# (one digest of every task record's bits per simulator config). A change
# that keeps plans, reports and runs bit-identical leaves all three files
# untouched — CI runs this and fails on any diff — and a change that moves
# plans on purpose commits the new file and says how many cells moved in each
# half. amd64 only, as the tests are (FMA fusion moves float bits elsewhere).
golden-update:
	$(GO) test ./internal/joint -run TestGoldenPlanDigests -update -count=1
	$(GO) test ./internal/experiments -run 'TestE([1-8]|1[0-9]|2[025])[A-Z]|TestExtensionExperimentsRun' -update -count=1
	$(GO) test ./internal/sim -run TestRunDigests -update -count=1

# Race-check the concurrent paths: frontier tables shared by planners on
# several goroutines (each table fills its cells under its own lock) through
# joint, surgery and the serve control plane, and the networked data plane
# (wire codec, deadline pacer, agent scheduling, dispatcher, subprocess
# loopback cluster). A set's tables are the one planner structure several
# goroutines mutate, so the tests that share one run ten times over. The
# planner and the simulator start no goroutine.
test-race:
	$(GO) test -race -timeout 30m ./internal/joint/... ./internal/surgery/... ./internal/telemetry/... ./internal/serve/...
	$(GO) test -race -timeout 30m -count=10 -run 'Parallel|Frontier' ./internal/surgery ./internal/joint
	$(GO) test -race -timeout 15m ./internal/wire/... ./internal/pace/... ./internal/agent/... ./internal/client/... ./internal/cluster/...

# Short fuzzing pass over the optimizer kernels (~10 s per target): the
# surgery optimizer must never panic or emit invalid plans, frontier
# lookups must stay bit-identical to the optimizer at snapped shares, the
# deadline-aware allocator must keep shares in [0, 1] summing to <= 1,
# end-to-end planning of arbitrary decoded scenarios (monolithic and
# sharded routes both) must never panic or break the share invariants, and
# the wire's frame reader, message decoder and client handshake must never
# panic on arbitrary bytes.
fuzz-smoke:
	$(GO) test ./internal/surgery -run '^$$' -fuzz FuzzSurgeryOptimize -fuzztime 10s
	$(GO) test ./internal/surgery -run '^$$' -fuzz FuzzFrontierLookup -fuzztime 10s
	$(GO) test ./internal/alloc -run '^$$' -fuzz FuzzAllocDeadline -fuzztime 10s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz FuzzTraceDecode -fuzztime 10s
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzPlanScenario -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireFrame -fuzztime 10s
	$(GO) test ./internal/client -run '^$$' -fuzz FuzzClientDecode -fuzztime 10s

# One sub-benchmark per evaluation artifact (BenchmarkExperiments/E1..E27,
# CI-sized variants where an experiment has one) plus kernel
# microbenchmarks, including the data plane's (wire Conn send/round trip,
# outbox drain).
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmark harness is a module of its own (bench/go.mod), so the root
# module's ./... never reaches its tests (manifest drift against
# BENCHMARK.json, load generator, stats, spans); this target does.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# Fast perf guard for CI: one iteration of the simulator event-loop and
# multi-user scaling benchmarks, of the planner's two reconciliation
# passes and of the control plane's three Ingest paths (cheap, delta, full;
# read probes/op), a hundred 64 KiB activation hops (codec pair, then a real
# agent) and a hundred requests through an in-process dispatcher and its
# agents at 32 in flight (read frames/flush), a thousand client.Do calls
# against a stub responder one at a time and 32 in flight (read
# frames/write), with allocation accounting, and two hundred paced waits at
# each of three lengths beside a time.Sleep baseline (read
# overshoot-p50-us).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineEvents|BenchmarkExperiments/E4$$' -benchtime=1x -benchmem ./internal/sim ./internal/experiments
	$(GO) test -run '^$$' -bench 'BenchmarkReconcile' -benchtime=1x -benchmem ./internal/joint
	$(GO) test -run '^$$' -bench 'BenchmarkIngest' -benchtime=1x -benchmem ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkInfer64kRoundTrip|BenchmarkAgentInfer64k|BenchmarkDispatcherRequests' -benchtime=100x -benchmem ./internal/wire ./internal/agent
	$(GO) test -run '^$$' -bench 'BenchmarkClientDo' -benchtime=1000x -benchmem ./internal/client
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
# and checks zero goroutine leaks after the runtimes close. The resume leg
# replays the trace's first 10 samples under a planner slowdown into a
# directory, then the whole trace on it: the replay resumes at sample 10
# and must match the uninterrupted run (4 full replans) byte for byte.
chaos-smoke:
	$(GO) test ./internal/serve -run 'TestRunChaos' -count=1
	rm -rf .chaos-smoke-dir
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace cmd/edgeserved/testdata/smoke-trace.jsonl \
		-policy hysteresis -snapshot-dir .chaos-smoke-dir \
		-chaos crash:3 -chaos crash:8 -chaos slow:12:15:0.001 -chaos corrupt:5:nan \
		-verify-recovery -expect-full-replans 4
	rm -rf .chaos-smoke-dir
	head -n 10 cmd/edgeserved/testdata/smoke-trace.jsonl > .chaos-smoke-prefix.jsonl
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace .chaos-smoke-prefix.jsonl -snapshot-dir .chaos-smoke-dir -chaos slow:2:5:0.5
	$(GO) run ./cmd/edgeserved -scenario cmd/edgeserved/testdata/smoke-scenario.json \
		-trace cmd/edgeserved/testdata/smoke-trace.jsonl -snapshot-dir .chaos-smoke-dir \
		-chaos slow:2:5:0.5 -verify-recovery -expect-full-replans 4
	rm -rf .chaos-smoke-dir .chaos-smoke-prefix.jsonl

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
		-listen 127.0.0.1:0 -timescale 0.002 -requests 200 -min-ok-frac 0.95

# Client-library smoke for CI: the internal/client unit suite (handshake
# taxonomy, per-call deadlines, cancellation, typed errors, in-flight
# window, and the finish rule: every call ends once, whichever path ends
# it) under the race detector.
client-smoke:
	$(GO) test -race -count=1 ./internal/client

# Backpressure stress suite for CI: misbehaving clients (stalled, slow,
# byte-at-a-time, mid-frame disconnect, reconnect storm) against a live
# dispatcher, plus the dispatcher lifecycle regressions (a quarantined
# agent's disconnect, strikes across a reconnect, a refused registration),
# all under -race.
backpressure-stress:
	$(GO) test -race -count=1 -timeout 10m \
		-run 'TestStalled|TestSlowReader|TestByteAtATime|TestMidFrame|TestReconnectStorm|TestCloseWithIdle|TestAgentDeathMidRequest|TestDuplicateHello|TestOutbox|TestNonLoopback|TestQuarantinedAgentDisconnect|TestReconnectKeepsQuarantineStrikes|TestAgentReportsRefusal' \
		./internal/agent

# The data-plane packages at both P counts write combining behaves
# differently on: at one P every sender woken together shares a Write, at two
# an idle P may take a yielded sender at once and it writes alone. The pacer
# is among them because it runs request continuations, and because at one P
# its waits must leave the P and the poller to the rest of the process
# (TestEchoBesidePacedWaits).
plane-cpu-matrix:
	$(GO) test -cpu 1,2 -count=1 ./internal/wire ./internal/client ./internal/agent ./internal/pace

# The platforms tier-1 does not build: the pacer waits on a timerfd on Linux
# and on a runtime timer elsewhere (internal/pace/sleep_*.go), so a change to
# one side can break the other unseen. The 386 vet covers the timerfd's
# itimerspec on 32-bit Linux.
cross-build:
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) vet ./internal/pace

# Regenerate every table and figure of the reconstructed evaluation.
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/video-analytics
	$(GO) run ./examples/smart-factory
	$(GO) run ./examples/adaptive-bandwidth
	$(GO) run ./examples/calibrated-pipeline

# Statement coverage of the module by the whole suite: every package's tests
# count toward every package (-coverpkg=./...), merged into one profile under
# $TMPDIR (never in the repo), then printed per function, least covered first,
# with the total last. About a minute on a 2-vCPU host; not run in CI.
cover:
	@prof=$$(mktemp "$${TMPDIR:-/tmp}/edgesurgeon-cover.XXXXXX") && \
	$(GO) test -coverpkg=./... -coverprofile="$$prof" ./... && \
	$(GO) tool cover -func="$$prof" > "$$prof.func" && \
	grep -v '^total:' "$$prof.func" | sort -k3,3n && grep '^total:' "$$prof.func" && \
	echo "profile: $$prof"

clean:
	$(GO) clean ./...

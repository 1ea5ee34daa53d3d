package main

// layers.go holds the per-layer drivers of the traced run: each times one
// layer's public operations from outside (the operations themselves are
// closures from adapter.go) and records a span around the measurement. The
// drivers do not depend on the workload: a traced invocation runs them once
// and every workload's report carries their numbers, so every traced run
// reports every per-layer metric; the workload's own numbers (gen.*, dataplane.*,
// proc.*, trace.*) come from the workload and read zero where the workload
// has no such layer.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usageMark is a snapshot of the process's resource counters.
type usageMark struct {
	cpu   time.Duration // user + system, this process and its reaped children
	alloc uint64
	pause uint64
}

func startUsage() usageMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usageMark{cpu: cpuTime(), alloc: ms.TotalAlloc, pause: ms.PauseTotalNs}
}

// cpuTime is the CPU time of this process plus every child it has waited
// for — which is why workloads reap their agent processes before reporting.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}

// report writes the process metrics for the ops done since the mark.
func (u usageMark) report(layer map[string]float64, ops int) {
	now := startUsage()
	n := float64(max(ops, 1))
	layer["proc.cpu_us_per_op"] = float64(now.cpu-u.cpu) / 1e3 / n
	layer["proc.alloc_bytes_per_op"] = float64(now.alloc-u.alloc) / n
	layer["proc.gc_pause_ms"] = float64(now.pause-u.pause) / 1e6
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		layer["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// measure times op in batches and returns the median batch's nanoseconds per
// call and the allocations per call. budget is the wall time to spend; an op
// slower than a third of it is simply called three times.
func measure(op func() error, budget time.Duration) (nsPerOp, allocsPerOp float64, err error) {
	t0 := time.Now()
	if err := op(); err != nil { // also warms the path
		return 0, 0, err
	}
	once := max(time.Since(t0), time.Nanosecond)
	const batches = 15
	perBatch := int(min(max(budget/batches/once, 1), 1<<20))
	nBatches := int(min(max(budget/(once*time.Duration(perBatch)), 3), batches))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	times := make([]float64, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		t := time.Now()
		for i := 0; i < perBatch; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, float64(time.Since(t))/float64(perBatch))
	}
	runtime.ReadMemStats(&ms)
	sort.Float64s(times)
	return percentile(times, 50), float64(ms.Mallocs-mallocs) / float64(nBatches*perBatch), nil
}

// layerRun carries one pass over the drivers.
type layerRun struct {
	cfg      *runConfig
	out      map[string]float64
	problems []string
}

// driver runs one layer driver inside a span; a failing driver makes the
// run incorrect but does not stop the others.
func (l *layerRun) driver(name, layer string, f func() error) {
	end := l.cfg.rec.region("driver."+name, layer, nil)
	err := f()
	end(map[string]any{"failed": err != nil})
	if err != nil {
		l.problems = append(l.problems, fmt.Sprintf("layer driver %s: %v", name, err))
	}
}

// timed measures op and stores nanoseconds-per-call divided by scale under
// metric; allocMetric, when set, receives the allocations per call.
func (l *layerRun) timed(metric string, scale float64, allocMetric string, budget time.Duration, op func() error) error {
	ns, allocs, err := measure(op, budget)
	if err != nil {
		return fmt.Errorf("%s: %w", metric, err)
	}
	l.out[metric] = ns / scale
	if allocMetric != "" {
		l.out[allocMetric] = allocs
	}
	return nil
}

const (
	perNs = 1.0
	perUs = 1e3
	perMs = 1e6
	// microBudget is the wall time one micro-measurement may take.
	microBudget = 40 * time.Millisecond
)

// runLayerDrivers measures every layer and returns the per-layer metrics it
// produced plus the problems it met.
func runLayerDrivers(ctx context.Context, cfg *runConfig) (map[string]float64, []string) {
	l := &layerRun{cfg: cfg, out: map[string]float64{}}

	l.driver("wire", "wire", func() error {
		for _, c := range wireCases() {
			bytes, err := c.encode()
			if err != nil {
				return err
			}
			l.out["wire.frame_bytes."+c.name] = float64(bytes)
			encNs, encAllocs, err := measure(func() error { _, err := c.encode(); return err }, microBudget)
			if err != nil {
				return err
			}
			decNs, decAllocs, err := measure(c.decode, microBudget)
			if err != nil {
				return err
			}
			l.out["wire.encode_ns."+c.name] = encNs
			l.out["wire.decode_ns."+c.name] = decNs
			l.out["wire.allocs."+c.name] = encAllocs + decAllocs
		}
		op, closeFn, err := wireConnRoundTrip()
		if err != nil {
			return err
		}
		defer closeFn()
		return l.timed("wire.conn_rtt_us", perUs, "", microBudget, op)
	})

	l.driver("client", "client", func() error {
		op, closeFn, err := clientStubRoundTrip()
		if err != nil {
			return err
		}
		defer closeFn()
		return l.timed("client.do_stub_us", perUs, "client.do_allocs", microBudget, op)
	})

	l.driver("agent.dispatcher", "agent", func() error {
		local, offload, closeFn, err := dispatcherRoundTrips(hopScenario())
		if err != nil {
			return err
		}
		defer closeFn()
		if err := l.timed("agent.local_rtt_us", perUs, "", 4*microBudget, local); err != nil {
			return err
		}
		if err := l.timed("agent.offload_rtt_us", perUs, "", 4*microBudget, offload); err != nil {
			return err
		}
		l.out["agent.hop_us"] = l.out["agent.offload_rtt_us"] - l.out["agent.local_rtt_us"]
		return nil
	})

	l.driver("agent.process", "agent", func() error {
		install, infer, closeFn, err := agentRoundTrips(installScenario())
		if err != nil {
			return err
		}
		defer closeFn()
		if err := l.timed("agent.install_us", perUs, "", 4*microBudget, install); err != nil {
			return err
		}
		return l.timed("agent.infer_us", perUs, "", 4*microBudget, infer)
	})

	l.driver("cluster", "cluster", func() error {
		dir := cfg.tempDir("agentbuild")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		if _, err := buildAgentBin(dir); err != nil {
			return err
		}
		l.out["cluster.agent_build_s"] = time.Since(t0).Seconds()
		t1 := time.Now()
		p, err := startPlane(planeConfig{
			ScenarioJSON: uniformPlaneScenario("phone-soc", cfg.seed), AgentBin: cfg.agentBin,
			Dir: cfg.tempDir("layer-start"), TimeScale: zeroPhysics, TelemetryPeriod: 0.1 / zeroPhysics, Seed: cfg.seed,
		})
		if err != nil {
			return err
		}
		l.out["cluster.start_s"] = time.Since(t1).Seconds()
		p.close()
		return nil
	})

	l.driver("config", "config", func() error {
		data := controlScenario(cfg.seed)
		return l.timed("config.parse_ms", perMs, "", 3*microBudget, func() error {
			_, err := parseScenario(data)
			return err
		})
	})

	l.driver("serve", "serve", func() error {
		sc, trace, _, err := controlInputs(cfg.seed)
		if err != nil {
			return err
		}
		dir := cfg.tempDir("layer-serve")
		defer os.RemoveAll(dir)
		r, err := runReplayRound(sc, trace, dir, cfg.rec)
		if err != nil {
			return err
		}
		l.problems = append(l.problems, r.problems...)
		l.out["serve.new_s"] = r.newSec
		for _, k := range ingestKinds {
			l.out["serve.ingest_ms."+k] = median(r.byKindMs[k])
		}
		l.out["serve.n.cheap"] = float64(r.counts.Cheap)
		l.out["serve.n.delta"] = float64(r.counts.Delta)
		l.out["serve.n.full"] = float64(r.counts.Full)
		l.out["serve.n.deferred"] = float64(r.counts.Deferred)
		l.out["serve.recover_s"] = r.recoverSec
		l.out["serve.snapshot_bytes"] = float64(r.snapBytes)
		l.out["serve.wal_bytes"] = float64(r.walBytes)
		appendEntry, writeSnapshot, closeFn, err := storeOps(dir, trace[0].Uplinks)
		if err != nil {
			return err
		}
		defer closeFn()
		if err := l.timed("serve.wal_append_us", perUs, "", microBudget, appendEntry); err != nil {
			return err
		}
		return l.timed("serve.snapshot_write_ms", perMs, "", microBudget, writeSnapshot)
	})

	l.driver("joint", "joint", func() error {
		sc, err := parseScenario(e23Population(2000, cfg.seed))
		if err != nil {
			return err
		}
		internScenario(sc)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		p, planner, buildDur, planDur, err := coldPlan(sc)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		l.out["joint.frontier_build_s"] = buildDur.Seconds()
		l.out["joint.plan_s"] = planDur.Seconds()
		l.out["joint.plan_alloc_mb"] = float64(ms.TotalAlloc-alloc) / (1 << 20)
		l.out["joint.surgery_ops"] = float64(p.SurgeryOps)
		l.out["joint.iterations"] = float64(p.Iterations)
		if lookups := p.FrontierHits + p.FrontierMisses; lookups > 0 {
			l.out["joint.frontier_hit_frac"] = float64(p.FrontierHits) / float64(lookups)
		}
		planDelta, observe, err := plannerOps(sc, p, planner, cfg.seed)
		if err != nil {
			return err
		}
		if err := l.timed("joint.plandelta_ms", perMs, "", 5*microBudget, planDelta); err != nil {
			return err
		}
		return l.timed("joint.observe_ms", perMs, "", 5*microBudget, observe)
	})

	l.driver("surgery", "surgery", func() error {
		optimize, lookup, buildFrontier, probes, err := surgeryOps()
		if err != nil {
			return err
		}
		if err := l.timed("surgery.optimize_us", perUs, "surgery.optimize_allocs", microBudget, optimize); err != nil {
			return err
		}
		if err := l.timed("surgery.lookup_ns", perNs, "", microBudget, lookup); err != nil {
			return err
		}
		const builds = 3
		t0 := time.Now()
		for i := 0; i < builds; i++ {
			if err := buildFrontier(); err != nil {
				return err
			}
		}
		l.out["surgery.build_frontier_ms"] = time.Since(t0).Seconds() * 1e3 / builds
		l.out["surgery.probes"] = float64(probes()) / builds
		return l.timed("alloc.deadline_aware_us", perUs, "", microBudget, allocOp(cfg.seed))
	})

	l.driver("telemetry", "telemetry", func() error {
		counterInc, histogramObserve, dump := telemetryOps()
		if err := l.timed("telemetry.counter_inc_ns", perNs, "", microBudget, counterInc); err != nil {
			return err
		}
		if err := l.timed("telemetry.histogram_observe_ns", perNs, "", microBudget, histogramObserve); err != nil {
			return err
		}
		return l.timed("telemetry.dump_us", perUs, "", microBudget, dump)
	})
	return l.out, l.problems
}

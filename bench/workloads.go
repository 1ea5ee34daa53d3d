package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is what one workload run is given.
type runConfig struct {
	seed     int64
	seconds  time.Duration
	rec      *recorder // nil = tracing off
	agentBin string
	scratch  string // directory for the run's temporary files

	// driven caches the layer drivers' metrics for the traced invocation.
	driven         map[string]float64
	drivenProblems []string
}

// tempDir names a fresh directory under the run's scratch space.
func (c *runConfig) tempDir(name string) string {
	return filepath.Join(c.scratch, fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string           // failed output checks: the run is not correct
	e2e               map[string]float64 // every end-to-end metric
	layer             map[string]float64 // the workload's own per-layer numbers (traced run)
	notes             []string           // timings with tail and count, for the human reader
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 12 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloadDef is one named workload. Later issues refer to workloads by
// these names; why is the one-line reason BENCHMARK.json records.
type workloadDef struct {
	name string
	why  string
	run  func(ctx context.Context, cfg *runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{
		name: "plane_local",
		why:  "closed loop, zero physics, no request crosses: smallest frames, so codec, client, per-request goroutine and outbox cost dominate",
		run: func(ctx context.Context, cfg *runConfig) (*outcome, error) {
			return runPlane(ctx, cfg, planeSpec{
				name: "plane_local", device: "phone-soc", timeScale: zeroPhysics,
				inflight: 16, window: 16, limit: 800 * time.Microsecond, wantCrossed: 0,
			})
		},
	},
	{
		name: "plane_offload",
		why:  "same loop, every request crosses with a 64 KiB activation: agent lookup, pending map, Infer hop, payload bytes and the agent process dominate",
		run: func(ctx context.Context, cfg *runConfig) (*outcome, error) {
			return runPlane(ctx, cfg, planeSpec{
				name: "plane_offload", device: "mcu-m7", timeScale: zeroPhysics,
				inflight: 16, window: 16, limit: 10 * time.Millisecond, wantCrossed: 1,
			})
		},
	},
	{
		name: "plane_paced",
		why:  "open loop at 400 rps with physics on, fading links and delta replans: the only workload where data plane and control plane contend",
		run: func(ctx context.Context, cfg *runConfig) (*outcome, error) {
			return runPlane(ctx, cfg, planeSpec{
				name: "plane_paced", timeScale: pacedTimeScale, replan: true, open: true,
				window: 64, wantCrossed: -1,
			})
		},
	},
	{
		name: "control_replay",
		why:  "no network: a scripted 100-sample drift trace through serve (2 full, 4 delta, 84 cheap replans, WAL) then Recover; warm incremental planner use",
		run:  runControlReplay,
	},
	{
		name: "plan_cold",
		why:  "frontier-table build plus a from-scratch sharded plan at 4000 users x 8 servers: the planner layers used cold and at scale",
		run:  runPlanCold,
	},
}

// --- plane workloads ----------------------------------------------------

const (
	planeConns     = 2 // one per core of the reference host
	planeSetupReps = 15
	planeWarmup    = time.Second
	// overheadOK is the wall overhead under which a paced request counts as
	// undisturbed (gen.overhead_ok_frac).
	overheadOK = 5 * time.Millisecond
	// traceSpanLimit bounds the spans one run keeps.
	traceSpanLimit = 60000
)

// planeSpec parameterises the three data-plane workloads.
type planeSpec struct {
	name      string
	device    string // uniform population of this device; empty = the paced mix
	timeScale float64
	replan    bool
	open      bool
	inflight  int // closed loop: requests in flight per connection
	window    int // client window
	// limit is the closed loop's round-trip limit behind slo_hit_frac: a
	// constant near the seed code's p96-p98, so the share is not saturated.
	limit time.Duration
	// wantCrossed is the share of requests that must cross the partition
	// for the workload to stress the path it is named for; -1 = unchecked.
	wantCrossed float64
}

// planeHandle is one set-up of a plane workload: cluster plus connections.
type planeHandle struct {
	p     *plane
	conns []doer
	close func()
}

// setUpPlane starts the cluster, connects the load connections and sends one
// request on each: everything before the first measured operation.
func setUpPlane(ctx context.Context, cfg *runConfig, spec planeSpec, data []byte) (*planeHandle, time.Duration, error) {
	t0 := time.Now()
	telemetryPeriod := 2.0 // model seconds
	if spec.timeScale == zeroPhysics {
		telemetryPeriod = 0.1 / zeroPhysics // a sample every 100 ms of wall clock
	}
	p, err := startPlane(planeConfig{
		ScenarioJSON: data, AgentBin: cfg.agentBin, Dir: cfg.tempDir(spec.name),
		Replan: spec.replan, TimeScale: spec.timeScale, TelemetryPeriod: telemetryPeriod, Seed: cfg.seed,
	})
	if err != nil {
		return nil, 0, err
	}
	h := &planeHandle{p: p}
	var closers []func() error
	h.close = func() {
		for _, c := range closers {
			_ = c()
		}
		p.close()
	}
	for i := 0; i < planeConns; i++ {
		c, err := dialClient(p.addr(), fmt.Sprintf("bench-%d", i), spec.window, 10*time.Second)
		if err != nil {
			h.close()
			return nil, 0, err
		}
		closers = append(closers, c.Close)
		h.conns = append(h.conns, c)
		if _, err := c.Do(ctx, i); err != nil {
			h.close()
			return nil, 0, fmt.Errorf("first request: %w", err)
		}
	}
	return h, time.Since(t0), nil
}

func runPlane(ctx context.Context, cfg *runConfig, spec planeSpec) (*outcome, error) {
	out := newOutcome()
	var data []byte
	var deadlineSec []float64
	if spec.device != "" {
		data = uniformPlaneScenario(spec.device, cfg.seed)
	} else {
		data, deadlineSec = pacedScenario(cfg.seed)
	}
	sc, err := parseScenario(data)
	if err != nil {
		return nil, err
	}
	nUsers := len(sc.Users)

	// Set up several times and keep the last; setup_s is the median.
	var h *planeHandle
	closePlane := func() {
		if h != nil {
			h.close()
			h = nil
		}
	}
	defer atExit(closePlane)()
	var setups []float64
	for rep := 0; rep < planeSetupReps; rep++ {
		closePlane()
		var d time.Duration
		if h, d, err = setUpPlane(ctx, cfg, spec, data); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, d.Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	objectiveMs, _ := planQuality(sc, h.p.currentPlan())
	out.e2e["objective_ms"] = objectiveMs

	order := seededRand(cfg.seed, "requests").Perm(nUsers)
	workers := planeConns * spec.inflight
	pickClosed := func(w, i int) int { return order[(w*nUsers/max(workers, 1)+i)%nUsers] }
	pickOpen := func(c, k int) int { return order[(k*planeConns+c)%nUsers] }
	phase := func(dur time.Duration, lt *loadTrace) *loadResult {
		if spec.open {
			return openLoop(ctx, h.conns, pacedRate/planeConns, dur, pickOpen, lt)
		}
		return closedLoop(ctx, h.conns, spec.inflight, dur, pickClosed, lt)
	}
	limitNs := func(op *opRecord) int64 {
		if spec.open {
			return int64(deadlineSec[op.user] * spec.timeScale * 1e9)
		}
		return int64(spec.limit)
	}

	usage := startUsage()
	ops := len(phase(planeWarmup, nil).ops)

	var measured *loadResult
	if cfg.rec == nil {
		measured = phase(cfg.seconds, nil)
	} else {
		// Traced run: half the window untraced, half traced, on the same
		// cluster; the gap between the halves' headline is the tracing cost.
		plain := phase(cfg.seconds/2, nil)
		lt := &loadTrace{rec: cfg.rec, timeScale: spec.timeScale, perWorker: traceSpanLimit / 6 / max(workers, planeConns)}
		measured = phase(cfg.seconds/2, lt)
		ops += len(plain.ops)
		a, b := summarizePlane(plain, spec.timeScale, limitNs), summarizePlane(measured, spec.timeScale, limitNs)
		if spec.open {
			out.layer["trace.overhead_frac"] = b.overhead.P50/a.overhead.P50 - 1
		} else {
			out.layer["trace.overhead_frac"] = 1 - b.rps/a.rps
		}
	}
	ops += len(measured.ops)
	m := summarizePlane(measured, spec.timeScale, limitNs)

	out.attempted, out.failed = m.attempted, m.failed
	out.problems = append(out.problems, measured.problems...)
	if measured.nProblem > len(measured.problems) {
		out.problem("... %d responses failed their check in all", measured.nProblem)
	}
	if spec.wantCrossed >= 0 && m.crossedFrac != spec.wantCrossed {
		out.problem("%s: crossed_frac is %g, want exactly %g", spec.name, m.crossedFrac, spec.wantCrossed)
	}
	for _, p := range planProblems(sc, h.p.currentPlan()) {
		out.problem("final plan: %s", p)
	}
	out.e2e["rps"] = m.rps
	out.e2e["slo_hit_frac"] = m.sloFrac
	if spec.open {
		out.e2e["op_p50_us"] = m.overhead.P50
		out.e2e["slow_op_us"] = m.crossedP50
	} else {
		out.e2e["op_p50_us"] = m.lat.P50
		out.e2e["slow_op_us"] = m.latP90
	}
	out.note("%s: %d requests, %d failed, %.0f rps over %.2f s", spec.name, m.attempted, m.failed, m.rps, measured.wall.Seconds())
	out.note("  latency us: p50 %.1f, p%g %.1f (n=%d); overhead us: p50 %.1f, p%g %.1f", m.lat.P50, m.lat.TailPct, m.lat.Tail, m.lat.N, m.overhead.P50, m.overhead.TailPct, m.overhead.Tail)

	out.layer["gen.samples"] = float64(m.lat.N)
	out.layer["gen.lat_p50_us"] = m.lat.P50
	out.layer["gen.late_p50_us"] = m.late.P50
	out.layer["gen.late_p99_us"] = m.lateP99
	out.layer["gen.lat_p99_us"] = m.latP99
	out.layer["gen.lat_tail_us"] = m.lat.Tail
	out.layer["gen.lat_tail_pct"] = m.lat.TailPct
	out.layer["gen.overhead_p99_us"] = m.overheadP99
	out.layer["gen.overhead_ok_frac"] = m.overheadOKFrac
	out.layer["gen.crossed_frac"] = m.crossedFrac
	out.layer["gen.model_ms_p50"] = m.modelMsP50
	out.layer["plane.replans_full"] = float64(h.p.counter("serve.replans.full"))
	out.layer["plane.replans_delta"] = float64(h.p.counter("serve.replans.delta"))
	for _, c := range dataplaneCounters {
		out.layer["dataplane."+c] = float64(h.p.counter("dataplane." + c))
	}
	closePlane() // reaps the agent children, so their CPU time is counted below
	usage.report(out.layer, ops)
	return out, nil
}

// planeSummary is one load phase reduced to numbers.
type planeSummary struct {
	attempted, failed int
	rps               float64 // OK responses per wall second over the whole phase
	lat, overhead     timing  // microseconds
	latP90, latP99    float64
	crossedP50        float64 // median overhead of the requests that crossed
	late              timing
	lateP99           float64
	overheadP99       float64
	overheadOKFrac    float64
	sloFrac           float64
	crossedFrac       float64
	modelMsP50        float64
}

func summarizePlane(r *loadResult, timeScale float64, limitNs func(*opRecord) int64) planeSummary {
	s := planeSummary{attempted: len(r.ops)}
	var lat, overhead, crossed, late, model []float64
	ok, hit, undisturbed := 0, 0, 0
	for i := range r.ops {
		op := &r.ops[i]
		if !op.ok {
			continue
		}
		ok++
		over := float64(op.latNs)/1e3 - op.modelSec*timeScale*1e6
		lat = append(lat, float64(op.latNs)/1e3)
		overhead = append(overhead, over)
		late = append(late, float64(op.lateNs)/1e3)
		model = append(model, op.modelSec*1e3)
		if op.crossed {
			crossed = append(crossed, over)
		}
		if op.latNs <= limitNs(op) {
			hit++
		}
		if over <= float64(overheadOK)/1e3 {
			undisturbed++
		}
	}
	s.failed = s.attempted - ok
	if ok == 0 || s.attempted == 0 {
		return s
	}
	s.rps = float64(ok) / r.wall.Seconds()
	s.lat, s.overhead, s.late = summarize(lat), summarize(overhead), summarize(late)
	s.latP90, s.latP99 = percentile(lat, 90), percentile(lat, 99)
	s.lateP99, s.overheadP99 = percentile(late, 99), percentile(overhead, 99)
	s.crossedP50 = median(crossed)
	s.modelMsP50 = summarize(model).P50
	s.crossedFrac = float64(len(crossed)) / float64(ok)
	// A failed or refused request misses every limit: shares are of requests sent.
	s.sloFrac = float64(hit) / float64(s.attempted)
	s.overheadOKFrac = float64(undisturbed) / float64(s.attempted)
	return s
}

// --- control_replay -----------------------------------------------------

// ingestKinds are the outcomes an ingested sample can have, as classified
// from outside by the serve.* counters it moved.
var ingestKinds = []string{"nochange", "cheap", "delta", "full"}

// replayRound is one pass of control_replay's trace through a fresh
// control plane, with everything it observed.
type replayRound struct {
	traced      bool
	newSec      float64
	ingestUs    []float64            // every Ingest call
	byKindMs    map[string][]float64 // Ingest calls by outcome
	ingestTotal time.Duration
	counts      replanCounts
	objectiveMs float64 // mean over samples of the published plan's objective per user
	deadline    float64 // mean over samples of the plan's predicted deadline share
	failed      int
	recoverSec  float64
	snapBytes   int64
	walBytes    int64
	problems    []string
}

func (r *replayRound) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runReplayRound builds a control plane on a fresh store in dir, ingests the
// trace one Ingest call per sample, checks the outcome, then closes the
// plane and recovers it from the store. dir is left behind for the caller.
func runReplayRound(sc *scenario, trace []sample, dir string, rec *recorder) (*replayRound, error) {
	r := &replayRound{traced: rec != nil, byKindMs: map[string][]float64{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	endNew := rec.region("serve.New", "serve", nil)
	t0 := time.Now()
	rt, err := newControlRuntime(sc, dir)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	r.newSec = time.Since(t0).Seconds()
	endNew(nil)

	for i := range trace {
		before := rt.counts()
		endIngest := rec.region("serve.Ingest", "serve", nil)
		t := time.Now()
		p, err := rt.ingest(trace[i])
		d := time.Since(t)
		after := rt.counts()
		kind := "nochange"
		switch {
		case after.Full > before.Full:
			kind = "full"
		case after.Delta > before.Delta:
			kind = "delta"
		case after.Cheap > before.Cheap:
			kind = "cheap"
		}
		endIngest(map[string]any{"sample": i, "outcome": kind})
		r.ingestTotal += d
		r.ingestUs = append(r.ingestUs, float64(d)/1e3)
		r.byKindMs[kind] = append(r.byKindMs[kind], float64(d)/1e6)
		if err != nil {
			r.failed++
			r.problem("sample %d: %v", i, err)
			continue
		}
		obj, dl := planQuality(sc, p)
		r.objectiveMs += obj
		r.deadline += dl
	}
	if n := float64(len(trace) - r.failed); n > 0 {
		r.objectiveMs /= n
		r.deadline /= n
	}
	r.counts = rt.counts()
	if r.counts != controlExpected {
		r.problem("replan counts %+v, the trace is built to give %+v", r.counts, controlExpected)
	}
	final := rt.current()
	for _, p := range planProblems(sc, final) {
		r.problem("final plan: %s", p)
	}
	live := encodePlan(final)
	if err := rt.close(); err != nil {
		return nil, err
	}
	r.snapBytes, r.walBytes = storeSizes(dir)

	endRecover := rec.region("serve.Recover", "serve", nil)
	t1 := time.Now()
	recovered, err := recoverControlRuntime(sc, dir)
	if err != nil {
		return nil, fmt.Errorf("serve.Recover: %w", err)
	}
	r.recoverSec = time.Since(t1).Seconds()
	endRecover(nil)
	if encodePlan(recovered.current()) != live {
		r.problem("serve.Recover's plan differs from the live final plan")
	}
	return r, recovered.close()
}

// controlInputs generates, parses and interns control_replay's deployment
// and generates its trace, timing the scenario part.
func controlInputs(seed int64) (*scenario, []sample, time.Duration, error) {
	t0 := time.Now()
	sc, err := parseScenario(controlScenario(seed))
	if err != nil {
		return nil, nil, 0, err
	}
	internScenario(sc)
	prep := time.Since(t0)
	return sc, controlTrace(seed), prep, nil
}

// roundsFit reports whether another round of about the mean duration so far
// still fits in the measuring window.
func roundsFit(start time.Time, rounds int, window time.Duration) bool {
	if rounds == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(rounds) <= window
}

func runControlReplay(ctx context.Context, cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	sc, trace, prep, err := controlInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	usage := startUsage()
	var rounds []*replayRound
	start := time.Now()
	minRounds := 1
	if cfg.rec != nil {
		minRounds = 2 // one untraced, one traced
	}
	for n := 0; ctx.Err() == nil && (n < minRounds || roundsFit(start, n, cfg.seconds)); n++ {
		rec := cfg.rec
		if n%2 == 0 {
			rec = nil // traced runs alternate untraced and traced rounds
		}
		dir := cfg.tempDir("control")
		r, err := runReplayRound(sc, trace, dir, rec)
		_ = os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}

	var news, all, objective, deadline, roundSec, plainSec, tracedSec, deltaMs, fullMs []float64
	for _, r := range rounds {
		sec := r.ingestTotal.Seconds()
		roundSec = append(roundSec, sec)
		if r.traced {
			tracedSec = append(tracedSec, sec)
		} else {
			plainSec = append(plainSec, sec)
		}
		out.attempted += len(r.ingestUs)
		out.failed += r.failed
		for _, p := range r.problems {
			out.problem("%s", p)
		}
		news = append(news, r.newSec)
		all = append(all, r.ingestUs...)
		// A round's four delta replans differ in cost with the server that
		// drifted (a GPU server's tables cost twice a CPU server's), so the
		// round reports their mean, and the run the median round.
		deltaMs = append(deltaMs, mean(r.byKindMs["delta"]))
		fullMs = append(fullMs, mean(r.byKindMs["full"]))
		objective = append(objective, r.objectiveMs)
		deadline = append(deadline, r.deadline)
	}
	lat := summarize(all)
	out.e2e["setup_s"] = prep.Seconds() + median(news)
	// Medians over the rounds, so one disturbed round does not move the
	// run's figures.
	out.e2e["rps"] = float64(len(trace)) / median(roundSec)
	out.e2e["op_p50_us"] = median(deltaMs) * 1e3
	out.e2e["slow_op_us"] = median(fullMs) * 1e3
	out.e2e["slo_hit_frac"] = median(deadline)
	out.e2e["objective_ms"] = median(objective)
	out.note("control_replay: %d rounds, %d samples, %d failed, median round %.2f s of Ingest", len(rounds), out.attempted, out.failed, median(roundSec))
	out.note("  Ingest us: p50 %.0f, p%g %.0f (n=%d)", lat.P50, lat.TailPct, lat.Tail, lat.N)
	if cfg.rec != nil {
		out.layer["trace.overhead_frac"] = median(tracedSec)/median(plainSec) - 1
	}
	usage.report(out.layer, out.attempted)
	return out, nil
}

// --- plan_cold ----------------------------------------------------------

const coldSetupReps = 5

func runPlanCold(ctx context.Context, cfg *runConfig) (*outcome, error) {
	out := newOutcome()
	var sc *scenario
	var setups []float64
	for rep := 0; rep < coldSetupReps; rep++ {
		t0 := time.Now()
		parsed, err := parseScenario(coldScenario(cfg.seed))
		if err != nil {
			return nil, err
		}
		internScenario(parsed)
		setups = append(setups, time.Since(t0).Seconds())
		sc = parsed
	}
	out.e2e["setup_s"] = median(setups)

	usage := startUsage()
	var opUs, plain, traced, objective, deadline, buildUs, planUs []float64
	start := time.Now()
	minOps := 1
	if cfg.rec != nil {
		minOps = 2
	}
	for n := 0; ctx.Err() == nil && (n < minOps || roundsFit(start, n, cfg.seconds)); n++ {
		rec := cfg.rec
		if n%2 == 0 {
			rec = nil
		}
		t0 := time.Now()
		p, _, buildDur, planDur, err := coldPlan(sc)
		d := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("plan %d: %v", n, err)
			continue
		}
		if rec != nil {
			build := span{ID: rec.id(), Name: "joint.BuildFrontierSet", Layer: "joint", Start: rec.at(t0), End: rec.at(t0.Add(buildDur))}
			rec.add(build, span{
				ID: rec.id(), Name: "joint.Plan", Layer: "joint", Start: build.End, End: build.End + int64(planDur),
				Attrs: map[string]any{"surgery_ops": p.SurgeryOps, "iterations": p.Iterations},
			})
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
		opUs = append(opUs, float64(d)/1e3)
		buildUs = append(buildUs, float64(buildDur)/1e3)
		planUs = append(planUs, float64(planDur)/1e3)
		for _, msg := range planProblems(sc, p) {
			out.problem("plan %d: %s", n, msg)
		}
		if p.FrontierHits == 0 {
			out.problem("plan %d never hit a frontier table", n)
		}
		obj, dl := planQuality(sc, p)
		objective = append(objective, obj)
		deadline = append(deadline, dl)
	}
	if len(opUs) == 0 {
		return out, nil
	}
	lat := summarize(opUs)
	out.e2e["rps"] = 1e6 / lat.P50
	out.e2e["op_p50_us"] = median(planUs)
	out.e2e["slow_op_us"] = median(buildUs)
	out.e2e["slo_hit_frac"] = median(deadline)
	out.e2e["objective_ms"] = median(objective)
	out.note("plan_cold: %d plans, %d failed; build+plan s: p50 %.3f, p%g %.3f (n=%d)", out.attempted, out.failed, lat.P50/1e6, lat.TailPct, lat.Tail/1e6, lat.N)
	if cfg.rec != nil {
		out.layer["trace.overhead_frac"] = median(traced)/median(plain) - 1
	}
	usage.report(out.layer, out.attempted)
	return out, nil
}

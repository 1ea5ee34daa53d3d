// Command edgeserved is the online serving control plane around one
// deployment: it records cluster telemetry traces and replays them through
// the serve.Runtime, reporting every replan decision the hysteresis policy
// made.
//
// Usage:
//
//	edgeserved -scenario deploy.json -record trace.jsonl -horizon 240 -period 5 \
//	    -fault crash:1:60:100                 # record a telemetry trace
//	edgeserved -scenario deploy.json -trace trace.jsonl -policy hysteresis
//	edgeserved -scenario deploy.json -trace trace.jsonl -policy hysteresis \
//	    -expect-full-replans 3                # CI smoke: pin the replan count
//	edgeserved -scenario deploy.json -trace trace.jsonl -http :8080
//	    # then: curl localhost:8080/metrics ; curl localhost:8080/plan ;
//	    # go tool pprof localhost:8080/debug/pprof/profile?seconds=10
//	edgeserved -scenario deploy.json -trace trace.jsonl -snapshot-dir state/ \
//	    -chaos crash:3 -chaos crash:8 -verify-recovery
//	    # chaos replay: kill/recover after samples 3 and 8, then assert the
//	    # run was byte-identical to one that never crashed
//	edgeserved -scenario deploy.json -trace trace.jsonl -snapshot-dir state/ -recover
//	    # resume a crashed replay from its snapshot + WAL
//	edgeserved -scenario deploy.json -listen 127.0.0.1:0 -timescale 0.002 \
//	    -requests 200 -min-ok-frac 0.95
//	    # live mode: spawn one edgeagent process per server, serve the wire
//	    # protocol over TCP, drive a bounded closed loop, gate the exit code
//	edgeserved -scenario deploy.json -listen 127.0.0.1:7443 -http :8080
//	    # live mode without -requests: serve clients until interrupted,
//	    # /metrics, /plan and /debug/pprof/ live on :8080 the whole time
//	edgeserved -scenario deploy.json -listen 127.0.0.1:0 -timescale 0.002 \
//	    -requests 200 -stall-clients 2 -min-ok-frac 0.95
//	    # backpressure smoke: two stalled clients alongside the closed loop;
//	    # the dispatcher sheds their responses without denting the drive
//
// The scenario schema is documented in internal/config; the trace format is
// JSON lines, one telemetry.Sample per line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/telemetry"
)

// faultFlags collects repeatable -fault specs of the form
// kind:server:start:end[:factor], e.g. crash:1:60:100 or brownout:0:30:90:0.5.
type faultFlags struct {
	windows []faults.Window
}

func (f *faultFlags) String() string { return fmt.Sprintf("%d faults", len(f.windows)) }

func (f *faultFlags) Set(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 4 || len(parts) > 5 {
		return fmt.Errorf("want kind:server:start:end[:factor], got %q", spec)
	}
	var w faults.Window
	switch parts[0] {
	case "crash":
		w.Kind = faults.ServerCrash
	case "outage":
		w.Kind = faults.LinkOutage
	case "brownout":
		w.Kind = faults.Brownout
	default:
		return fmt.Errorf("unknown fault kind %q (crash | outage | brownout)", parts[0])
	}
	var err error
	if w.Server, err = strconv.Atoi(parts[1]); err != nil {
		return fmt.Errorf("server index %q: %w", parts[1], err)
	}
	if w.Start, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return fmt.Errorf("start %q: %w", parts[2], err)
	}
	if w.End, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return fmt.Errorf("end %q: %w", parts[3], err)
	}
	if len(parts) == 5 {
		if w.Factor, err = strconv.ParseFloat(parts[4], 64); err != nil {
			return fmt.Errorf("factor %q: %w", parts[4], err)
		}
	}
	if err := w.Validate(); err != nil {
		return err
	}
	f.windows = append(f.windows, w)
	return nil
}

// chaosFlags collects repeatable -chaos specs:
//
//	crash:I             kill the control plane after ingesting sample I,
//	                    then recover it from -snapshot-dir and continue
//	slow:FROM:TO:FACTOR planner speed FACTOR over samples [FROM, TO)
//	corrupt:I:KIND      mangle sample I; KIND is nan | negative | time | width
type chaosFlags struct {
	events []faults.ChaosEvent
}

func (c *chaosFlags) String() string { return fmt.Sprintf("%d chaos events", len(c.events)) }

func (c *chaosFlags) Set(spec string) error {
	parts := strings.Split(spec, ":")
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("sample ordinal %q: %w", s, err)
		}
		return v, nil
	}
	var e faults.ChaosEvent
	var err error
	switch parts[0] {
	case "crash":
		if len(parts) != 2 {
			return fmt.Errorf("want crash:I, got %q", spec)
		}
		e.Kind = faults.CrashAfterSample
		if e.Sample, err = atoi(parts[1]); err != nil {
			return err
		}
	case "slow":
		if len(parts) != 4 {
			return fmt.Errorf("want slow:FROM:TO:FACTOR, got %q", spec)
		}
		e.Kind = faults.SlowPlanner
		if e.Sample, err = atoi(parts[1]); err != nil {
			return err
		}
		if e.Until, err = atoi(parts[2]); err != nil {
			return err
		}
		if e.Factor, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return fmt.Errorf("factor %q: %w", parts[3], err)
		}
	case "corrupt":
		if len(parts) != 3 {
			return fmt.Errorf("want corrupt:I:KIND, got %q", spec)
		}
		e.Kind = faults.CorruptSample
		if e.Sample, err = atoi(parts[1]); err != nil {
			return err
		}
		switch parts[2] {
		case "nan":
			e.Corrupt = faults.CorruptNaN
		case "negative":
			e.Corrupt = faults.CorruptNegative
		case "time":
			e.Corrupt = faults.CorruptTimeRegression
		case "width":
			e.Corrupt = faults.CorruptWidth
		default:
			return fmt.Errorf("unknown corruption %q (nan | negative | time | width)", parts[2])
		}
	default:
		return fmt.Errorf("unknown chaos kind %q (crash | slow | corrupt)", parts[0])
	}
	if err := e.Validate(); err != nil {
		return err
	}
	c.events = append(c.events, e)
	return nil
}

func main() {
	var faultSpecs faultFlags
	var chaosSpecs chaosFlags
	var (
		scenarioPath = flag.String("scenario", "", "path to JSON scenario (required)")
		recordPath   = flag.String("record", "", "record a telemetry trace to this file and exit")
		horizon      = flag.Float64("horizon", 0, "recording horizon in seconds (0 = scenario horizon)")
		period       = flag.Float64("period", 5, "recording sample period in seconds")
		tracePath    = flag.String("trace", "", "replay this telemetry trace through the control plane")
		policyName   = flag.String("policy", "hysteresis", "replan policy: always | hysteresis | never")
		relChange    = flag.Float64("rel-change", -1, "override: min relative uplink drift for a full replan")
		minInterval  = flag.Float64("min-interval", -1, "override: min seconds between full replans")
		budget       = flag.Int("replan-budget", -1, "override: max full replans per trailing window")
		budgetWindow = flag.Float64("budget-window", -1, "override: trailing budget window in seconds")
		journalPath  = flag.String("journal", "", "write the replan-decision journal here (\"-\" = stdout)")
		expectFull   = flag.Int("expect-full-replans", -1, "exit non-zero unless the replay ran exactly this many full replans")
		httpAddr     = flag.String("http", "", "serve /metrics, /plan and /debug/pprof/ on this address (after the replay, or alongside live mode)")
		shardThresh  = flag.Int("shard-threshold", 0, "route full replans of scenarios with at least this many users through the hierarchical sharded planner (0 = always monolithic)")
		frontier     = flag.Bool("frontier", false, "keep Pareto-frontier surgery tables across plans, one set per planned scenario (see serve.frontier.* metrics): changes speed and the planner.frontier.* hit/miss counters, never the plan")

		snapshotDir = flag.String("snapshot-dir", "", "persist snapshot + WAL state in this directory (crash-safe replay)")
		recoverRun  = flag.Bool("recover", false, "recover the control plane from -snapshot-dir and continue the trace from where it crashed")
		verifyRec   = flag.Bool("verify-recovery", false, "after a chaos replay with crashes, rerun without the crashes and exit non-zero unless journal, metrics and final plan are byte-identical")

		deltaReplan   = flag.Bool("delta-replan", false, "route qualifying replans through the incremental delta planner: only drifted servers' shards are re-planned, warm-started from the active plan (same hysteresis gates and deadline budget as full replans)")
		deltaDirtyMax = flag.Float64("delta-dirty-frac", -1, "override: max fraction of servers that may be dirty for a delta replan; wider drift falls back to a full replan (default 0.5)")

		replanDeadline = flag.Float64("replan-deadline", -1, "override: virtual-seconds deadline for one full replan (0 = unbounded); an over-deadline replan aborts and keeps serving the stale plan")
		qStrikes       = flag.Int("quarantine-strikes", -1, "override: consecutive validation failures before a telemetry source is quarantined (0 = off)")
		qProbation     = flag.Float64("quarantine-probation", -1, "override: virtual seconds a quarantined source stays muted")

		listenAddr  = flag.String("listen", "", "live mode: run the wire dispatcher on this TCP address with one edgeagent process per server")
		agents      = flag.Int("agents", 0, "live mode: local agent process count (0 = one per scenario server, -1 = spawn none and wait for remote edgeagent processes to dial in)")
		agentBin    = flag.String("agent-bin", "", "live mode: prebuilt edgeagent binary (empty = go build one)")
		requests    = flag.Int("requests", 0, "live mode: drive this many closed-loop requests then exit (0 = serve until interrupted)")
		workers     = flag.Int("workers", 4, "live mode: closed-loop client concurrency")
		timeScale   = flag.Float64("timescale", 1, "live mode: wall-seconds per model-second for every process")
		telemPeriod = flag.Float64("telemetry-period", 2, "live mode: agent telemetry period in model-seconds")
		minOKFrac   = flag.Float64("min-ok-frac", 0, "live mode: exit non-zero unless at least this fraction of driven requests succeed")
		clusterSeed = flag.Int64("seed", 42, "live mode: partition-crossing sampler seed")
		stallCount  = flag.Int("stall-clients", 0, "live mode: also connect this many stalled clients (handshake, burst requests, never read) to exercise backpressure shedding")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Var(&faultSpecs, "fault", "fault window kind:server:start:end[:factor] (repeatable, record mode)")
	flag.Var(&chaosSpecs, "chaos", "chaos event crash:I | slow:FROM:TO:FACTOR | corrupt:I:KIND (repeatable, replay mode)")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "edgeserved: -scenario required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	sc, scHorizon, err := config.Parse(data)
	if err != nil {
		fatal(err)
	}

	mustPolicy := func() serve.Policy {
		policy, err := buildPolicy(*policyName, *relChange, *minInterval, *budget, *budgetWindow,
			*replanDeadline, *qStrikes, *qProbation, *deltaReplan, *deltaDirtyMax)
		if err != nil {
			fatal(err)
		}
		return policy
	}
	switch {
	case *listenAddr != "":
		// Live mode has no trace to replay, journal, crash or resume, and
		// plans through cluster.Start's own planner; say so instead of
		// silently dropping the flag.
		if name := firstSet("chaos", "expect-full-replans", "journal",
			"recover", "shard-threshold", "snapshot-dir", "verify-recovery"); name != "" {
			fmt.Fprintf(os.Stderr, "edgeserved: -%s has no effect with -listen (it configures trace replay)\n", name)
			os.Exit(2)
		}
		policy := mustPolicy()
		err = runCluster(sc, data, policy, clusterOpts{
			listen: *listenAddr, agents: *agents, agentBin: *agentBin,
			requests: *requests, workers: *workers,
			timeScale: *timeScale, telemetryPeriod: *telemPeriod,
			minOKFrac: *minOKFrac, frontier: *frontier, seed: *clusterSeed,
			stallClients: *stallCount, httpAddr: *httpAddr,
		})
		if err != nil {
			fatal(err)
		}
	case *recordPath != "":
		if err := record(sc, scHorizon, *recordPath, *horizon, *period, faultSpecs.windows); err != nil {
			fatal(err)
		}
	case *tracePath != "":
		// -recover resumes a crashed run from its store: it injects no chaos
		// and has no crash-free twin to be verified against.
		if name := firstSet("chaos", "verify-recovery"); *recoverRun && name != "" {
			fmt.Fprintf(os.Stderr, "edgeserved: -%s has no effect with -recover (it configures a chaos replay)\n", name)
			os.Exit(2)
		}
		policy := mustPolicy()
		opts := replayOpts{
			tracePath: *tracePath, journalPath: *journalPath,
			expectFull: *expectFull, httpAddr: *httpAddr,
			shardThreshold: *shardThresh, frontier: *frontier,
			snapshotDir: *snapshotDir, recover: *recoverRun,
			chaos: chaosSpecs.events, verifyRecovery: *verifyRec,
		}
		if err := replay(sc, policy, opts); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "edgeserved: need -record, -trace, or -listen")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "edgeserved: %v\n", err)
	os.Exit(1)
}

// startProfiles starts a CPU profile and/or arranges a heap profile dump,
// returning a stop function main defers. Both writers are stdlib
// runtime/pprof — no extra dependencies, matching the repo's
// no-new-modules rule.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// record samples the scenario's own links (and the optional fault windows)
// into a JSONL telemetry trace — the offline stand-in for a live cluster's
// periodic probes.
func record(sc *joint.Scenario, scHorizon float64, path string, horizon, period float64, windows []faults.Window) error {
	if horizon <= 0 {
		horizon = scHorizon
	}
	servers := make([]sim.ServerConfig, len(sc.Servers))
	for i, s := range sc.Servers {
		servers[i] = sim.ServerConfig{Profile: s.Profile, Link: s.Link}
	}
	var sched *faults.Schedule
	if len(windows) > 0 {
		var err error
		if sched, err = faults.New(windows...); err != nil {
			return err
		}
	}
	trace, err := sim.RecordTrace(servers, sched, horizon, period)
	if err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.EncodeTrace(out, trace); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d samples over %gs (period %gs, %d fault windows) to %s\n",
		len(trace), horizon, period, len(windows), path)
	return nil
}

// firstSet returns the first of the named flags (in flag.Visit's
// lexical order) that was set on the command line, or "".
func firstSet(names ...string) string {
	found := ""
	flag.Visit(func(f *flag.Flag) {
		for _, name := range names {
			if found == "" && f.Name == name {
				found = name
			}
		}
	})
	return found
}

func buildPolicy(name string, relChange, minInterval float64, budget int, window,
	replanDeadline float64, qStrikes int, qProbation float64, deltaReplan bool, deltaDirtyMax float64) (serve.Policy, error) {
	var p serve.Policy
	switch name {
	case "always":
		p = serve.AlwaysReplan()
	case "hysteresis":
		p = serve.Hysteresis()
	case "never":
		p = serve.NeverReplan()
	default:
		return p, fmt.Errorf("unknown policy %q (always | hysteresis | never)", name)
	}
	if relChange >= 0 {
		p.RelChange = relChange
	}
	if minInterval >= 0 {
		p.MinInterval = minInterval
	}
	if budget >= 0 {
		p.Budget = budget
	}
	if window >= 0 {
		p.Window = window
	}
	if replanDeadline >= 0 {
		p.ReplanDeadline = replanDeadline
	}
	if qStrikes >= 0 {
		p.QuarantineStrikes = qStrikes
	}
	if qProbation >= 0 {
		p.QuarantineProbation = qProbation
	}
	if deltaReplan {
		p.DeltaReplan = true
	}
	if deltaDirtyMax >= 0 {
		p.DeltaMaxDirtyFrac = deltaDirtyMax
	}
	return p, p.Validate()
}

// replayOpts bundles the replay-mode configuration.
type replayOpts struct {
	tracePath, journalPath string
	expectFull             int
	httpAddr               string
	shardThreshold         int
	frontier               bool

	snapshotDir    string
	recover        bool
	chaos          []faults.ChaosEvent
	verifyRecovery bool
}

// config is the control-plane configuration a replay runs under: in memory,
// with a fresh planner (the caller attaches a store where it wants one).
func (o replayOpts) config(sc *joint.Scenario, policy serve.Policy) serve.Config {
	return serve.Config{
		Scenario: sc,
		Planner:  &joint.Planner{Opt: joint.Options{ShardThreshold: o.shardThreshold}},
		Policy:   policy,
		Frontier: o.frontier,
	}
}

// replay drives the recorded trace through the control plane — fresh,
// recovered from a snapshot directory, or under a chaos schedule — and
// reports what the policy decided.
func replay(sc *joint.Scenario, policy serve.Policy, o replayOpts) error {
	in, err := os.Open(o.tracePath)
	if err != nil {
		return err
	}
	trace, err := telemetry.DecodeTrace(in)
	in.Close()
	if err != nil {
		return err
	}
	cfg := o.config(sc, policy)
	chaos, err := faults.NewChaos(o.chaos...)
	if err != nil {
		return err
	}

	var rt *serve.Runtime
	switch {
	case o.recover:
		if o.snapshotDir == "" {
			return fmt.Errorf("-recover needs -snapshot-dir")
		}
		store, err := serve.OpenStore(o.snapshotDir)
		if err != nil {
			return err
		}
		cfg.Store = store
		if rt, err = serve.Recover(cfg); err != nil {
			return err
		}
		skip := rt.Seq()
		fmt.Printf("recovered at seq %d; replaying %d remaining samples\n", skip, max(0, len(trace)-int(skip)))
		for i := int(skip); i < len(trace); i++ {
			if _, err := rt.Ingest(trace[i]); err != nil {
				return fmt.Errorf("sample %d: %w", i, err)
			}
		}
	default:
		if o.snapshotDir != "" {
			store, err := serve.OpenStore(o.snapshotDir)
			if err != nil {
				return err
			}
			cfg.Store = store
		}
		res, err := serve.RunChaos(cfg, trace, chaos)
		if err != nil {
			return err
		}
		rt = res.Runtime
		if !chaos.Empty() {
			fmt.Printf("chaos: %d crashes, %d corrupted samples, %d rejections, %d throttle changes\n",
				res.Crashes, res.Corrupted, res.Rejections, res.Throttles)
		}
		if o.verifyRecovery {
			if err := verifyRecovery(sc, policy, o, trace, chaos, rt); err != nil {
				return err
			}
			fmt.Println("verify-recovery: journal, metrics and final plan byte-identical to the crash-free run")
		}
	}

	reg := rt.Metrics()
	count := func(name string) int64 { return reg.Counter(name).Value() }
	plan := rt.Current()
	fmt.Printf("replayed %d samples over %gs\n", len(trace), rt.Clock())
	fmt.Printf("full replans:    %d\n", count("serve.replans.full"))
	fmt.Printf("cheap refreshes: %d\n", count("serve.replans.cheap"))
	fmt.Printf("deferred:        %d\n", count("serve.replans.deferred"))
	fmt.Printf("no-change:       %d\n", count("serve.no_change"))
	if n := count("serve.replans.aborted"); n > 0 {
		fmt.Printf("deadline aborts: %d\n", n)
	}
	if n := count("serve.quarantine.quarantined"); n > 0 {
		fmt.Printf("quarantines:     %d (%d samples dropped muted)\n", n, count("serve.quarantine.dropped"))
	}
	fmt.Printf("final plan:      %s objective=%.4f feasible=%t\n", plan.PlannerName, plan.Objective, plan.Feasible)

	if o.journalPath != "" {
		text := rt.Journal().String()
		if o.journalPath == "-" {
			fmt.Print(text)
		} else if err := telemetry.WriteFileAtomic(o.journalPath, []byte(text), 0o644); err != nil {
			return err
		}
	}
	if o.expectFull >= 0 && int64(o.expectFull) != rt.FullReplans() {
		return fmt.Errorf("expected %d full replans, got %d", o.expectFull, rt.FullReplans())
	}
	if o.httpAddr != "" {
		return serveHTTP(o.httpAddr, sc, rt)
	}
	return rt.Close()
}

// verifyRecovery reruns the chaos replay with the crash events stripped
// (in memory, no store, fresh planner) and errors out unless the
// crashed-and-recovered runtime's journal, metrics and final plan match
// byte for byte.
func verifyRecovery(sc *joint.Scenario, policy serve.Policy, o replayOpts, trace []telemetry.Sample, chaos *faults.ChaosSchedule, crashed *serve.Runtime) error {
	var calmEvents []faults.ChaosEvent
	for _, e := range chaos.Events() {
		if e.Kind != faults.CrashAfterSample {
			calmEvents = append(calmEvents, e)
		}
	}
	calmChaos, err := faults.NewChaos(calmEvents...)
	if err != nil {
		return err
	}
	cfg := o.config(sc, policy)
	calm, err := serve.RunChaos(cfg, trace, calmChaos)
	if err != nil {
		return fmt.Errorf("verify-recovery: crash-free rerun: %w", err)
	}
	defer calm.Runtime.Close()
	if got, want := crashed.Journal().String(), calm.Runtime.Journal().String(); got != want {
		return fmt.Errorf("verify-recovery: journal diverged\n--- crash-free ---\n%s--- recovered ---\n%s", want, got)
	}
	if got, want := crashed.Metrics().Text(), calm.Runtime.Metrics().Text(); got != want {
		return fmt.Errorf("verify-recovery: metrics diverged\n--- crash-free ---\n%s--- recovered ---\n%s", want, got)
	}
	if got, want := serve.EncodePlan(crashed.Current()), serve.EncodePlan(calm.Runtime.Current()); got != want {
		return fmt.Errorf("verify-recovery: final plan diverged\n--- crash-free ---\n%s--- recovered ---\n%s", want, got)
	}
	return nil
}

// planSummary is the /plan endpoint's per-user view of the active plan. It
// deliberately re-shapes joint.Plan: the raw struct embeds whole model
// definitions, which no monitoring client wants.
type planSummary struct {
	Planner   string        `json:"planner"`
	Objective float64       `json:"objective"`
	Feasible  bool          `json:"feasible"`
	Users     []userSummary `json:"users"`
}

type userSummary struct {
	Name           string  `json:"name"`
	Server         int     `json:"server"` // -1 = device-only
	Partition      int     `json:"partition"`
	Exits          []int   `json:"exits,omitempty"`
	Theta          float64 `json:"theta,omitempty"`
	ComputeShare   float64 `json:"computeShare"`
	BandwidthShare float64 `json:"bandwidthShare"`
	LatencySec     float64 `json:"latencySec"`
}

// newMux builds the -http handler: /metrics and /plan off the runtime, and
// the process's own profiles under /debug/pprof/.
func newMux(sc *joint.Scenario, rt *serve.Runtime) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rt.Metrics().WriteText(w)
	})
	mux.HandleFunc("/plan", func(w http.ResponseWriter, _ *http.Request) {
		plan := rt.Current()
		sum := planSummary{
			Planner:   plan.PlannerName,
			Objective: plan.Objective,
			Feasible:  plan.Feasible,
		}
		for ui := range plan.Decisions {
			d := &plan.Decisions[ui]
			sum.Users = append(sum.Users, userSummary{
				Name:           sc.Users[ui].Name,
				Server:         d.Server,
				Partition:      d.Plan.Partition,
				Exits:          d.Plan.Exits,
				Theta:          d.Plan.Theta,
				ComputeShare:   d.ComputeShare,
				BandwidthShare: d.BandwidthShare,
				LatencySec:     d.Latency(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
	})
	return mux
}

func serveHTTP(addr string, sc *joint.Scenario, rt *serve.Runtime) error {
	fmt.Printf("serving /metrics, /plan and /debug/pprof/ on %s\n", addr)
	return http.ListenAndServe(addr, newMux(sc, rt))
}

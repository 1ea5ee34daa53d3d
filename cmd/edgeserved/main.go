// Command edgeserved is the online serving control plane around one
// deployment: it records cluster telemetry traces and replays them through
// the serve.Runtime, reporting every replan decision the chosen -policy
// preset made.
//
// Usage:
//
//	edgeserved -scenario deploy.json -record trace.jsonl -horizon 240 -period 5 \
//	    -fault crash:1:60:100                 # record a telemetry trace
//	edgeserved -scenario deploy.json -trace trace.jsonl -policy hysteresis
//	edgeserved -scenario deploy.json -trace trace.jsonl -policy hysteresis \
//	    -expect-full-replans 3                # CI smoke: pin the replan count
//	edgeserved -scenario deploy.json -trace trace.jsonl -policy delta
//	    # replans re-plan only drifted servers' shards (serve.Delta)
//	edgeserved -scenario deploy.json -trace trace.jsonl -policy robust
//	    # replan deadline and telemetry quarantine armed (serve.Robust)
//	edgeserved -scenario deploy.json -trace trace.jsonl -http :8080
//	    # then: curl localhost:8080/metrics ; curl localhost:8080/plan ;
//	    # go tool pprof localhost:8080/debug/pprof/profile?seconds=10
//	edgeserved -scenario deploy.json -trace trace.jsonl -snapshot-dir state/ \
//	    -chaos crash:3 -chaos crash:8 -verify-recovery
//	    # chaos replay: kill/recover after samples 3 and 8, then assert the
//	    # run was byte-identical to one that never crashed. A -snapshot-dir
//	    # that already holds a run is resumed at the first sample it has not
//	    # seen ("resumed at sample N"), never overwritten.
//	edgeserved -scenario deploy.json -listen 127.0.0.1:0 -timescale 0.002 \
//	    -requests 200 -min-ok-frac 0.95
//	    # live mode: spawn one edgeagent process per server, serve the wire
//	    # protocol over TCP, drive a bounded closed loop, gate the exit code
//	edgeserved -scenario deploy.json -listen 127.0.0.1:7443 -http :8080
//	    # live mode without -requests: serve clients until interrupted,
//	    # /metrics, /plan and /debug/pprof/ live on :8080 the whole time
//
// The scenario schema is documented in internal/config; the trace format is
// JSON lines, one telemetry.Sample per line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strconv"
	"strings"

	"edgesurgeon/internal/cluster"
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
		policyName   = flag.String("policy", "hysteresis", "replan policy preset: "+policyNames())
		journalPath  = flag.String("journal", "", "write the replan-decision journal here (\"-\" = stdout)")
		expectFull   = flag.Int("expect-full-replans", -1, "exit non-zero unless the replay ran exactly this many full replans")
		httpAddr     = flag.String("http", "", "serve /metrics, /plan and /debug/pprof/ on this address (after the replay, or alongside live mode)")
		shardThresh  = flag.Int("shard-threshold", 0, "route full replans of scenarios with at least this many users through the hierarchical sharded planner (0 = always monolithic)")

		snapshotDir = flag.String("snapshot-dir", "", "persist snapshot + WAL state in this directory (crash-safe replay; a directory holding a run resumes it)")
		verifyRec   = flag.Bool("verify-recovery", false, "after a crashed or resumed replay, rerun the whole trace in memory without the crashes and exit non-zero unless journal, metrics and final plan are byte-identical")

		listenAddr  = flag.String("listen", "", "live mode: run the wire dispatcher on this TCP address with one edgeagent process per server")
		agents      = flag.Int("agents", 0, "live mode: local agent process count (0 = one per scenario server, -1 = spawn none and wait for remote edgeagent processes to dial in)")
		agentBin    = flag.String("agent-bin", "", "live mode: prebuilt edgeagent binary (empty = go build one)")
		requests    = flag.Int("requests", 0, "live mode: drive this many closed-loop requests then exit (0 = serve until interrupted)")
		workers     = flag.Int("workers", 4, "live mode: closed-loop client concurrency")
		timeScale   = flag.Float64("timescale", 1, "live mode: wall-seconds per model-second for every process")
		telemPeriod = flag.Float64("telemetry-period", 2, "live mode: agent telemetry period in model-seconds")
		minOKFrac   = flag.Float64("min-ok-frac", 0, "live mode: exit non-zero unless at least this fraction of driven requests succeed")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Var(&faultSpecs, "fault", "fault window kind:server:start:end[:factor] (repeatable, record mode)")
	flag.Var(&chaosSpecs, "chaos", "chaos event crash:I | slow:FROM:TO:FACTOR | corrupt:I:KIND (repeatable, replay mode)")
	flag.Parse()

	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	if *scenarioPath == "" {
		usage("-scenario required")
	}
	preset, ok := policies[*policyName]
	if !ok {
		usage("-policy %q is not one of %s", *policyName, policyNames())
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	sc, scHorizon, err := config.Parse(data)
	if err != nil {
		fatal(err)
	}

	switch {
	case *listenAddr != "":
		// Live mode has no trace to replay, journal, crash or resume, and
		// plans through cluster.Start's own planner; say so instead of
		// silently dropping the flag.
		if name := firstSet("chaos", "expect-full-replans", "journal",
			"shard-threshold", "snapshot-dir", "verify-recovery"); name != "" {
			usage("-%s has no effect with -listen (it configures trace replay)", name)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{{"timescale", *timeScale}, {"telemetry-period", *telemPeriod}} {
			if !(f.v > 0) || math.IsInf(f.v, 1) {
				usage("-%s %g is not a finite number > 0", f.name, f.v)
			}
		}
		if !(*minOKFrac >= 0 && *minOKFrac <= 1) {
			usage("-min-ok-frac %g is outside [0, 1]", *minOKFrac)
		}
		// Seed fixes the dispatcher's partition-crossing sampler.
		err = runCluster(sc, cluster.Config{
			ScenarioJSON: data, Agents: *agents, AgentBin: *agentBin, Listen: *listenAddr,
			Policy: preset(), TimeScale: *timeScale, TelemetryPeriod: *telemPeriod, Seed: 42,
		}, cluster.DriveConfig{Requests: *requests, Workers: *workers}, *minOKFrac, *httpAddr)
		if err != nil {
			fatal(err)
		}
	case *recordPath != "":
		if err := record(sc, scHorizon, *recordPath, *horizon, *period, faultSpecs.windows); err != nil {
			fatal(err)
		}
	case *tracePath != "":
		opts := replayOpts{
			tracePath: *tracePath, journalPath: *journalPath,
			expectFull: *expectFull, httpAddr: *httpAddr,
			snapshotDir: *snapshotDir,
			chaos:       chaosSpecs.events, verifyRecovery: *verifyRec,
		}
		cfg := serve.Config{
			Scenario: sc,
			Planner:  &joint.Planner{Opt: joint.Options{ShardThreshold: *shardThresh}},
			Policy:   preset(),
			Frontier: true,
		}
		if err := replay(cfg, opts); err != nil {
			fatal(err)
		}
	default:
		usage("need -record, -trace, or -listen")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "edgeserved: %v\n", err)
	os.Exit(1)
}

// usage reports a command-line error and exits with status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edgeserved: "+format+"\n", args...)
	os.Exit(2)
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

// policies are the -policy presets, each one a policy an existing caller
// runs.
var policies = map[string]func() serve.Policy{
	"always":     serve.AlwaysReplan,
	"delta":      serve.Delta,
	"hysteresis": serve.Hysteresis,
	"never":      serve.NeverReplan,
	"robust":     serve.Robust,
}

// policyNames lists the -policy presets, sorted: "always | delta | ...".
func policyNames() string {
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	slices.Sort(names)
	return strings.Join(names, " | ")
}

// replayOpts bundles the replay-mode configuration.
type replayOpts struct {
	tracePath, journalPath string
	expectFull             int
	httpAddr               string

	snapshotDir    string
	chaos          []faults.ChaosEvent
	verifyRecovery bool
}

// replay drives the recorded trace through the control plane under cfg —
// in memory, or resuming whatever run -snapshot-dir holds, under a chaos
// schedule — and reports what the policy decided.
func replay(cfg serve.Config, o replayOpts) error {
	in, err := os.Open(o.tracePath)
	if err != nil {
		return err
	}
	trace, err := telemetry.DecodeTrace(in)
	in.Close()
	if err != nil {
		return err
	}
	chaos, err := faults.NewChaos(o.chaos...)
	if err != nil {
		return err
	}
	if o.snapshotDir != "" {
		if cfg.Store, err = serve.OpenStore(o.snapshotDir); err != nil {
			return err
		}
	}
	res, err := serve.RunChaos(cfg, trace, chaos)
	if err != nil {
		return err
	}
	rt := res.Runtime
	if res.Resumed > 0 {
		fmt.Printf("resumed at sample %d\n", res.Resumed)
	}
	if !chaos.Empty() {
		fmt.Printf("chaos: %d crashes, %d corrupted samples, %d rejections, %d throttle changes\n",
			res.Crashes, res.Corrupted, res.Rejections, res.Throttles)
	}
	if o.verifyRecovery {
		// The twin replays the whole trace in memory under the same
		// schedule minus its crashes (a subset of events NewChaos took).
		var calm []faults.ChaosEvent
		for _, e := range o.chaos {
			if e.Kind != faults.CrashAfterSample {
				calm = append(calm, e)
			}
		}
		calmChaos, _ := faults.NewChaos(calm...)
		cfg.Store = nil // RunChaos owns the store; the twin runs in memory
		twin, err := serve.RunChaos(cfg, trace, calmChaos)
		if err != nil {
			return fmt.Errorf("verify-recovery: crash-free rerun: %w", err)
		}
		if err := serve.Diff(twin.Runtime, rt); err != nil {
			return fmt.Errorf("verify-recovery: %w", err)
		}
		fmt.Println("verify-recovery: journal, metrics and final plan byte-identical to the crash-free run")
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
		return serveHTTP(o.httpAddr, cfg.Scenario, rt)
	}
	return rt.Close()
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
	mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof's routes
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

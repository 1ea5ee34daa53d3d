// Command edgeserved is the online serving control plane around one
// deployment: it records cluster telemetry traces and replays them through
// the serve.Runtime, reporting every replan decision the chosen -policy
// preset made.
//
// Usage:
//
//	edgeserved -scenario deploy.json -record trace.jsonl -horizon 240 \
//	    -fault crash:1:60:100                 # record a telemetry trace (5 s period)
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
// Exactly one of -record, -trace and -listen selects the mode; a flag of
// another mode exits 2 naming it. The scenario schema is documented in
// internal/config; the trace format is JSON lines, one telemetry.Sample per
// line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
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
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/telemetry"
)

// The names -fault and -chaos accept. chaosForms gives each chaos kind's
// whole spec, and so its field count.
var (
	faultKinds = map[string]faults.Kind{
		"crash": faults.ServerCrash, "outage": faults.LinkOutage, "brownout": faults.Brownout,
	}
	chaosForms  = map[string]string{"crash": "crash:I", "slow": "slow:FROM:TO:FACTOR", "corrupt": "corrupt:I:KIND"}
	corruptions = map[string]faults.CorruptKind{
		"nan": faults.CorruptNaN, "negative": faults.CorruptNegative,
		"time": faults.CorruptTimeRegression, "width": faults.CorruptWidth,
	}
)

// parseFault parses one -fault spec, kind:server:start:end[:factor], e.g.
// crash:1:60:100 or brownout:0:30:90:0.5.
func parseFault(spec string) (faults.Window, error) {
	var w faults.Window
	parts := strings.Split(spec, ":")
	if len(parts) < 4 || len(parts) > 5 {
		return w, fmt.Errorf("want kind:server:start:end[:factor], got %q", spec)
	}
	var ok bool
	if w.Kind, ok = faultKinds[parts[0]]; !ok {
		return w, fmt.Errorf("unknown fault kind %q (crash | outage | brownout)", parts[0])
	}
	var err error
	if w.Server, err = strconv.Atoi(parts[1]); err != nil {
		return w, fmt.Errorf("server index %q: %w", parts[1], err)
	}
	if w.Start, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return w, fmt.Errorf("start %q: %w", parts[2], err)
	}
	if w.End, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return w, fmt.Errorf("end %q: %w", parts[3], err)
	}
	if len(parts) == 5 {
		if w.Factor, err = strconv.ParseFloat(parts[4], 64); err != nil {
			return w, fmt.Errorf("factor %q: %w", parts[4], err)
		}
	}
	return w, w.Validate()
}

// parseChaos parses one -chaos spec:
//
//	crash:I             kill the control plane after ingesting sample I,
//	                    then recover it from -snapshot-dir and continue
//	slow:FROM:TO:FACTOR planner speed FACTOR over samples [FROM, TO)
//	corrupt:I:KIND      mangle sample I; KIND is nan | negative | time | width
func parseChaos(spec string) (faults.ChaosEvent, error) {
	var e faults.ChaosEvent
	parts := strings.Split(spec, ":")
	form, ok := chaosForms[parts[0]]
	if !ok {
		return e, fmt.Errorf("unknown chaos kind %q (crash | slow | corrupt)", parts[0])
	}
	if len(parts) != strings.Count(form, ":")+1 {
		return e, fmt.Errorf("want %s, got %q", form, spec)
	}
	var err error
	if e.Sample, err = strconv.Atoi(parts[1]); err != nil {
		return e, fmt.Errorf("sample ordinal %q: %w", parts[1], err)
	}
	switch parts[0] {
	case "crash":
		e.Kind = faults.CrashAfterSample
	case "slow":
		e.Kind = faults.SlowPlanner
		if e.Until, err = strconv.Atoi(parts[2]); err != nil {
			return e, fmt.Errorf("sample ordinal %q: %w", parts[2], err)
		}
		if e.Factor, err = strconv.ParseFloat(parts[3], 64); err != nil {
			return e, fmt.Errorf("factor %q: %w", parts[3], err)
		}
	case "corrupt":
		e.Kind = faults.CorruptSample
		if e.Corrupt, ok = corruptions[parts[2]]; !ok {
			return e, fmt.Errorf("unknown corruption %q (nan | negative | time | width)", parts[2])
		}
	}
	return e, e.Validate()
}

// recordPeriod is a recorded trace's sample period in seconds.
const recordPeriod = 5.0

func main() { os.Exit(run()) }

// run is the whole command. Its status reaches os.Exit only after the
// deferred profile stop, so a failing run still leaves both profiles.
func run() int {
	var (
		scenarioPath = flag.String("scenario", "", "path to JSON scenario (required)")
		recordPath   = flag.String("record", "", "record a telemetry trace to this file and exit")
		horizon      = flag.Float64("horizon", 0, "recording horizon in seconds (0 = scenario horizon)")
		tracePath    = flag.String("trace", "", "replay this telemetry trace through the control plane")
		policyName   = flag.String("policy", "hysteresis", "replan policy preset: "+policyNames())
		journalPath  = flag.String("journal", "", "write the replan-decision journal here (\"-\" = stdout)")
		expectFull   = flag.Int("expect-full-replans", -1, "exit non-zero unless the replay ran exactly this many full replans")
		httpAddr     = flag.String("http", "", "serve /metrics, /plan and /debug/pprof/ on this address (after the replay, or alongside live mode)")
		shardThresh  = flag.Int("shard-threshold", 0, "route full replans of scenarios with at least this many users through the hierarchical sharded planner (0 = always monolithic)")

		snapshotDir = flag.String("snapshot-dir", "", "persist snapshot + WAL state in this directory (crash-safe replay; a directory holding a run resumes it)")
		verifyRec   = flag.Bool("verify-recovery", false, "after a crashed or resumed replay, rerun the whole trace in memory without the crashes and exit non-zero unless journal, metrics and final plan are byte-identical")

		listenAddr = flag.String("listen", "", "live mode: run the wire dispatcher on this TCP address with one edgeagent process per server")
		agents     = flag.Int("agents", 0, "live mode: local agent process count (0 = one per scenario server, -1 = spawn none and wait for remote edgeagent processes to dial in)")
		agentBin   = flag.String("agent-bin", "", "live mode: prebuilt edgeagent binary (empty = go build one)")
		requests   = flag.Int("requests", 0, "live mode: drive this many closed-loop requests then exit (0 = serve until interrupted)")
		timeScale  = flag.Float64("timescale", 1, "live mode: wall-seconds per model-second for every process")
		minOKFrac  = flag.Float64("min-ok-frac", 0, "live mode: exit non-zero unless at least this fraction of driven requests succeed")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	var windows []faults.Window
	flag.Func("fault", "fault window kind:server:start:end[:factor] (repeatable, record mode)", func(spec string) error {
		w, err := parseFault(spec)
		windows = append(windows, w) // on err flag.Parse exits 2; nothing reads it
		return err
	})
	var events []faults.ChaosEvent
	flag.Func("chaos", "chaos event crash:I | slow:FROM:TO:FACTOR | corrupt:I:KIND (repeatable, replay mode)", func(spec string) error {
		e, err := parseChaos(spec)
		events = append(events, e) // on err flag.Parse exits 2; nothing reads it
		return err
	})
	flag.Parse()

	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return fatal(err)
	}
	defer stopProfiles()

	if *scenarioPath == "" {
		return usage("-scenario required")
	}
	// A flag the chosen mode does not read is refused, not silently dropped.
	m, err := chooseMode()
	if err != nil {
		return usage("%v", err)
	}
	preset, ok := policies[*policyName]
	if !ok {
		return usage("-policy %q is not one of %s", *policyName, policyNames())
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		return fatal(err)
	}
	sc, scHorizon, err := config.Parse(data)
	if err != nil {
		return fatal(err)
	}

	if !(*timeScale > 0) || math.IsInf(*timeScale, 1) {
		return usage("-timescale %g is not a finite number > 0", *timeScale)
	}
	if !(*minOKFrac >= 0 && *minOKFrac <= 1) {
		return usage("-min-ok-frac %g is outside [0, 1]", *minOKFrac)
	}
	var httpLn net.Listener // bound before any work, so a taken address fails first

	if *httpAddr != "" {
		if httpLn, err = net.Listen("tcp", *httpAddr); err != nil {
			return fatal(err)
		}
	}

	switch m {
	case "listen":
		// Seed fixes the dispatcher's partition-crossing sampler.
		err = runCluster(sc, cluster.Config{
			ScenarioJSON: data, Agents: *agents, AgentBin: *agentBin, Listen: *listenAddr,
			Policy: preset(), TimeScale: *timeScale, Seed: 42,
		}, *requests, *minOKFrac, httpLn)
	case "record":
		err = record(sc, scHorizon, *recordPath, *horizon, windows)
	case "trace":
		opts := replayOpts{
			tracePath: *tracePath, journalPath: *journalPath,
			expectFull: *expectFull, httpLn: httpLn,
			snapshotDir: *snapshotDir,
			chaos:       events, verifyRecovery: *verifyRec,
		}
		cfg := serve.Config{
			Scenario: sc,
			Planner:  &joint.Planner{Opt: joint.Options{ShardThreshold: *shardThresh}},
			Policy:   preset(),
			Frontier: true,
		}
		err = replay(cfg, opts)
	}
	if err != nil {
		return fatal(err)
	}
	return 0
}

// fatal reports a run's error and returns exit status 1.
func fatal(err error) int {
	fmt.Fprintf(os.Stderr, "edgeserved: %v\n", err)
	return 1
}

// usage reports a command-line error and returns exit status 2.
func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "edgeserved: "+format+"\n", args...)
	return 2
}

// flagModes maps each flag that configures only some modes to the flags
// selecting those modes: -listen (live), -record and -trace (replay). A flag
// not listed (-scenario, the profile flags) goes with every mode.
var flagModes = map[string]string{
	"agents": "listen", "agent-bin": "listen", "requests": "listen",
	"timescale": "listen", "min-ok-frac": "listen",
	"horizon": "record", "fault": "record",
	"journal": "trace", "expect-full-replans": "trace", "chaos": "trace",
	"shard-threshold": "trace", "snapshot-dir": "trace", "verify-recovery": "trace",
	"policy": "listen trace", "http": "listen trace",
}

// chooseMode returns the one mode selector the command line sets. It fails
// on none, on two, and on a flag (the first set, in flag.Visit's lexical
// order) that the selected mode does not read.
func chooseMode() (string, error) {
	var chosen []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "listen" || f.Name == "record" || f.Name == "trace" {
			chosen = append(chosen, f.Name)
		}
	})
	switch len(chosen) {
	case 0:
		return "", fmt.Errorf("need -record, -trace, or -listen")
	case 1:
	default:
		return "", fmt.Errorf("-%s and -%s each select a mode; give one", chosen[0], chosen[1])
	}
	var err error
	flag.Visit(func(f *flag.Flag) {
		modes, ok := flagModes[f.Name]
		if ok && err == nil && !slices.Contains(strings.Fields(modes), chosen[0]) {
			err = fmt.Errorf("-%s has no effect with -%s (it goes with -%s)",
				f.Name, chosen[0], strings.ReplaceAll(modes, " ", " or -"))
		}
	})
	return chosen[0], err
}

// record samples the scenario's own links (and the optional fault windows)
// into a JSONL telemetry trace — the offline stand-in for a live cluster's
// periodic probes.
func record(sc *joint.Scenario, scHorizon float64, path string, horizon float64, windows []faults.Window) error {
	if horizon <= 0 {
		horizon = scHorizon
	}
	links := make([]netmodel.Link, len(sc.Servers))
	for i, s := range sc.Servers {
		links[i] = s.Link
	}
	sched, err := faults.New(windows...)
	if err != nil {
		return err
	}
	trace, err := sim.RecordTrace(links, sched, horizon, recordPeriod)
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
		len(trace), horizon, recordPeriod, len(windows), path)
	return nil
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
	httpLn                 net.Listener // nil = no -http

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
		calm := slices.DeleteFunc(slices.Clone(o.chaos),
			func(e faults.ChaosEvent) bool { return e.Kind == faults.CrashAfterSample })
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
	if o.httpLn != nil {
		return serveHTTP(o.httpLn, cfg.Scenario, rt)
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

func serveHTTP(ln net.Listener, sc *joint.Scenario, rt *serve.Runtime) error {
	fmt.Printf("serving /metrics, /plan and /debug/pprof/ on %s\n", ln.Addr())
	return http.Serve(ln, newMux(sc, rt))
}

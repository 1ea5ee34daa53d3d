// Package experiments regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured-vs-expected outcomes). Each experiment is a
// Spec in one ordered list, Specs: its ID, the paper-class artifact it
// regenerates, and a run function that fills a Report whose tables carry
// exactly the rows that artifact reports. cmd/experiments renders the list
// and BenchmarkExperiments times it, one sub-benchmark per spec.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"edgesurgeon/internal/baseline"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/stats"
	"edgesurgeon/internal/workload"
)

// Report is one experiment's regenerated artifact.
type Report struct {
	// ID is the experiment identifier (E1..E27).
	ID string
	// Artifact names the paper-class table/figure this regenerates.
	Artifact string
	// Title describes the experiment.
	Title string
	// Tables carry the regenerated rows/series.
	Tables []*stats.Table
	// Notes records the measured shape (who wins, crossovers, factors).
	Notes []string
	// Metrics carries machine-readable scalars (throughput, speedups) for
	// perf-trajectory artifacts such as BENCH_sim.json.
	Metrics map[string]float64
}

// table adds an empty table to the report and returns it for filling.
func (r *Report) table(title string, headers ...string) *stats.Table {
	t := stats.NewTable(title, headers...)
	r.Tables = append(r.Tables, t)
	return t
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full report as text.
func (r *Report) String() string {
	s := fmt.Sprintf("### %s (%s): %s\n", r.ID, r.Artifact, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Spec is one experiment.
type Spec struct {
	// ID, Artifact and Title head the report. A runner whose title names
	// its sizes sets Report.Title itself.
	ID, Artifact, Title string
	// Run fills the report at full size.
	Run func(*Report) error
	// Quick, when set, is the CI-sized variant `experiments -quick` runs:
	// same table shape and metric keys, shrunken inputs. Experiments
	// without one run full-size either way.
	Quick func(*Report) error
}

// Report runs the experiment, its quick variant if quick is set and it has
// one, and returns the filled report.
func (s Spec) Report(quick bool) (*Report, error) {
	if quick && s.Quick != nil {
		return s.fill(s.Quick)
	}
	return s.fill(s.Run)
}

func (s Spec) fill(run func(*Report) error) (*Report, error) {
	r := &Report{ID: s.ID, Artifact: s.Artifact, Title: s.Title, Metrics: map[string]float64{}}
	if err := run(r); err != nil {
		return nil, err
	}
	return r, nil
}

// Specs lists every experiment, in run order.
var Specs = []Spec{
	{ID: "E1", Artifact: "Table 1", Title: "DNN workload characteristics (model zoo)", Run: e1ModelZoo},
	{ID: "E2", Artifact: "Table 2", Title: "Full-inference latency (ms) across heterogeneous hardware", Run: e2HardwareProfile},
	{ID: "E3", Artifact: "Figure 3", Title: "Latency vs uplink bandwidth (single user, VGG16, Pi -> GPU server)", Run: e3BandwidthSweep},
	{ID: "E4", Artifact: "Figure 4", Title: "Latency vs number of users (2 servers, 60 Mbps uplinks)", Run: e4UserScaling},
	{ID: "E5", Artifact: "Figure 5", Title: "Deadline satisfaction vs arrival rate (12 users, 300 ms SLO)", Run: e5DeadlineVsRate},
	{ID: "E6", Artifact: "Figure 6", Title: "Accuracy-latency trade-off frontier (VGG16, Pi -> GPU @ 20 Mbps)", Run: e6AccuracyLatency},
	{ID: "E7", Artifact: "Figure 7", Title: "Ablation: joint vs surgery-only vs alloc-only vs neither", Run: e7Ablation},
	{ID: "E8", Artifact: "Figure 8", Title: "Heterogeneity sensitivity at fixed aggregate capacity", Run: e8Heterogeneity},
	{ID: "E9", Artifact: "Figure 9", Title: "Planner runtime vs number of users (reassignment off, 4 rounds)", Run: e9PlannerScalability},
	{ID: "E10", Artifact: "Figure 10", Title: "Convergence of the block-coordinate iteration (16 users)", Run: e10Convergence},
	{ID: "E11", Artifact: "Table 3", Title: "Optimality gap vs exhaustive assignment (small instances)", Run: e11OptimalityGap},
	{ID: "E12", Artifact: "Figure 11", Title: "Measured exit behaviour of a trained multi-exit network (rings task)", Run: e12RealMultiExit},
	{ID: "E13", Artifact: "Figure 12", Title: "Online adaptation under a fading uplink (epoch replanning vs static plan)", Run: e13OnlineAdaptation},
	{ID: "E14", Artifact: "Figure 13 (extension)", Title: "Device energy per task by strategy (battery endpoints)", Run: e14DeviceEnergy},
	{ID: "E15", Artifact: "Figure 14 (extension)", Title: "Activation compression before transfer (VGG16, Pi -> GPU)", Run: e15Compression},
	{ID: "E16", Artifact: "Figure 15 (extension)", Title: "Offload-probe ablation: escaping the all-local equilibrium", Run: e16ProbeAblation},
	{ID: "E17", Artifact: "Figure 16 (extension)", Title: "Priority weights: gold (w=4) vs bronze (w=1) service differentiation", Run: e17PriorityWeights},
	{ID: "E18", Artifact: "Figure 17 (extension)", Title: "Service-discipline sensitivity of the simulated results", Run: e18DisciplineSensitivity},
	{ID: "E19", Artifact: "Table 4 (extension)", Title: "Max sustainable rate at >=90% deadline satisfaction (12 users, 300 ms SLO)", Run: e19SaturationThroughput},
	{ID: "E20", Artifact: "Figure 18", Title: "Availability under server/link failures (static vs drift-only vs failure-aware dispatch)", Run: e20AvailabilityUnderFailures},
	{ID: "E21", Artifact: "Scale study",
		Run: func(r *Report) error { return e21Scale(r, []int{10000, 100000}, 32, 20) }},
	{ID: "E22", Artifact: "Control-plane study", Title: "Replanning policies on a drifting + faulty trace (always vs hysteresis vs never)", Run: e22ControlPlanePolicies},
	{ID: "E23", Artifact: "Planner scale study",
		Run:   func(r *Report) error { return e23Scale(r, []int{1000, 10000}, []int{100000}, 8, 256) },
		Quick: func(r *Report) error { return e23Scale(r, []int{256}, []int{4000}, 4, 64) }},
	{ID: "E24", Artifact: "Frontier table study",
		Run:   func(r *Report) error { return e24Frontier(r, []int{1000, 10000}, 8, 256, 1000) },
		Quick: func(r *Report) error { return e24Frontier(r, []int{256}, 4, 64, 256) }},
	{ID: "E25", Artifact: "Robustness study", Title: "Chaos replay: crash/recover fidelity, replan deadlines, telemetry quarantine", Run: e25ChaosRecovery},
	{ID: "E26", Artifact: "Replan latency study",
		Run:   func(r *Report) error { return e26Replan(r, []int{10000, 100000}, 8, 256) },
		Quick: func(r *Report) error { return e26Replan(r, []int{4000}, 4, 64) }},
	// E27's request count spans several fading dwells and replan debounce
	// windows, so the policy arms diverge.
	{ID: "E27", Artifact: "Networked data plane study",
		Run:   func(r *Report) error { return e27DataPlane(r, 6, 4000, 0.005) },
		Quick: func(r *Report) error { return e27DataPlane(r, 4, 1200, 0.002) }},
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Spec, bool) {
	for _, s := range Specs {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// forEachArm runs f(0..n-1), at most GOMAXPROCS at a time, and returns
// their errors joined. Arms of one figure are independent (each builds its
// own scenario and strategy), so sweeps parallelize freely; each arm's
// result must land in its own pre-allocated slot.
func forEachArm(n int, f func(i int) error) error {
	errs := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			errs[i] = f(i)
			<-slots
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// outcome is one arm of a grid: the plan its strategy made and the
// simulation of that plan.
type outcome struct {
	plan *joint.Plan
	*sim.Result
}

// grid is a strategy × point sweep, the shape most figures take. Arm (i, s)
// plans scenario(points[i]) with strategies()[s] and simulates the plan for
// horizon (simHorizon when 0) under discipline(points[i]) (DedicatedShares
// when nil).
type grid[P any] struct {
	points     []P
	strategies func() []joint.Strategy
	scenario   func(P) *joint.Scenario
	discipline func(P) sim.Discipline
	horizon    float64
}

// run runs every arm on forEachArm, each with a strategy set of its own,
// and returns arm (i, s) as out[i][s].
func (g grid[P]) run() ([][]outcome, error) {
	n := len(g.strategies())
	out := make([][]outcome, len(g.points))
	for i := range out {
		out[i] = make([]outcome, n)
	}
	err := forEachArm(len(g.points)*n, func(k int) error {
		i, s := k/n, k%n
		var err error
		out[i][s], err = g.probe(g.points[i], g.strategies()[s])
		return err
	})
	return out, err
}

// probe plans and simulates one point under one strategy.
func (g grid[P]) probe(p P, s joint.Strategy) (outcome, error) {
	disc, horizon := sim.DedicatedShares, g.horizon
	if g.discipline != nil {
		disc = g.discipline(p)
	}
	if horizon == 0 {
		horizon = simHorizon
	}
	plan, res, err := joint.PlanAndSimulate(g.scenario(p), s, horizon, disc)
	if err != nil {
		return outcome{}, fmt.Errorf("%s at %v: %w", s.Name(), p, err)
	}
	return outcome{plan, res}, nil
}

// window tallies the simulated tasks of one replay window, or of a whole
// replay: the latencies of those that completed, deadline hits among those
// with a deadline, and failures.
type window struct {
	lat  stats.Series
	met  stats.Meter
	fail stats.Meter
}

func (w *window) add(rec *sim.TaskRecord) {
	if !rec.Failed {
		w.lat.Add(rec.Latency)
	}
	if rec.Deadline > 0 {
		w.met.Observe(rec.Met)
	}
	w.fail.Observe(rec.Failed)
}

// replay runs [0, horizon) window by window, as a control plane serving sc
// would: plan(i, start) is the plan in force over window i, which starts at
// i*length, and the window's arrivals are simulated under it — under
// sched's faults with a 2 s task timeout when sched is set. It returns the
// whole run's tallies and each window's.
func replay(sc *joint.Scenario, horizon, length float64, sched *faults.Schedule,
	plan func(i int, start float64) (*joint.Plan, error)) (total window, windows []window, err error) {
	for i := 0; float64(i)*length < horizon; i++ {
		start := float64(i) * length
		p, err := plan(i, start)
		if err != nil {
			return total, nil, fmt.Errorf("window at %gs: %w", start, err)
		}
		cfg := joint.BuildSimConfig(sc, p, horizon, sim.DedicatedShares)
		if sched != nil {
			cfg.Faults, cfg.Retry = sched, sim.RetryPolicy{TaskTimeout: 2}
		}
		// The config holds the whole horizon's arrivals; keep the window's.
		for ui := range cfg.Users {
			var kept []workload.Task
			for _, task := range cfg.Users[ui].Tasks {
				if task.Arrival >= start && task.Arrival < start+length {
					kept = append(kept, task)
				}
			}
			cfg.Users[ui].Tasks = kept
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return total, nil, err
		}
		var w window
		for ri := range res.Records {
			w.add(&res.Records[ri])
			total.add(&res.Records[ri])
		}
		windows = append(windows, w)
	}
	return total, windows, nil
}

// timed runs f and returns its result with its wall-clock seconds.
func timed[T any](f func() (T, error)) (T, float64, error) {
	t0 := time.Now()
	v, err := f()
	return v, time.Since(t0).Seconds(), err
}

// --- shared scenario builders -------------------------------------------

func mustDevice(name string) *hardware.Profile {
	p, err := hardware.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// mixedScenario is the workhorse multi-user scenario: nUsers cycling over
// {Pi, phone, Jetson} devices and {ResNet18, AlexNet, MobileNetV2, VGG16}
// models, two heterogeneous servers (GPU + CPU) with distinct uplinks.
func mixedScenario(nUsers int, ratePerUser, deadline, uplinkMbps float64) *joint.Scenario {
	devices := []*hardware.Profile{mustDevice("rpi4"), mustDevice("phone-soc"), mustDevice("jetson-nano")}
	models := []func() *dnn.Model{dnn.ResNet18, dnn.AlexNet, dnn.MobileNetV2, dnn.VGG16}
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "edge-gpu", Profile: mustDevice("edge-gpu-t4"),
				Link: netmodel.NewStatic("wifi-a", netmodel.Mbps(uplinkMbps), 0.004), RTT: 0.004},
			{Name: "edge-cpu", Profile: mustDevice("edge-cpu-16c"),
				Link: netmodel.NewStatic("wifi-b", netmodel.Mbps(uplinkMbps*0.7), 0.006), RTT: 0.006},
		},
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name:       fmt.Sprintf("user%02d", i),
			Model:      models[i%len(models)](),
			Device:     devices[i%len(devices)],
			Rate:       ratePerUser,
			Deadline:   deadline,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(9000 + i),
		})
	}
	return sc
}

// strategyHeaders is a table's header row: first, then each strategy's
// name once per suffix.
func strategyHeaders(first string, strategies []joint.Strategy, suffixes ...string) []string {
	headers := []string{first}
	for _, s := range strategies {
		for _, suffix := range suffixes {
			headers = append(headers, s.Name()+suffix)
		}
	}
	return headers
}

// strategiesUnderTest returns the standard comparison set: the joint
// planner followed by the four published-baseline stand-ins.
func strategiesUnderTest() []joint.Strategy {
	return []joint.Strategy{
		&joint.Planner{},
		baseline.LocalOnly{},
		baseline.EdgeOnly{},
		baseline.Neurosurgeon{},
		baseline.BranchyLocal{},
	}
}

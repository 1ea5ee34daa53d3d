package joint

import (
	"math"
	"strings"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/workload"
)

// testScenario builds a contended heterogeneous scenario: nUsers across two
// servers (one GPU, one CPU) with distinct uplinks.
func testScenario(t testing.TB, nUsers int, uplinkMbps float64) *Scenario {
	t.Helper()
	pi, err := hardware.ByName("rpi4")
	if err != nil {
		t.Fatal(err)
	}
	phone, err := hardware.ByName("phone-soc")
	if err != nil {
		t.Fatal(err)
	}
	jetson, err := hardware.ByName("jetson-nano")
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := hardware.ByName("edge-cpu-16c")
	if err != nil {
		t.Fatal(err)
	}
	devices := []*hardware.Profile{pi, phone, jetson}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}

	sc := &Scenario{
		Servers: []Server{
			{Name: "edge-gpu", Profile: gpu, Link: netmodel.NewStatic("wifi-a", netmodel.Mbps(uplinkMbps), 0.004), RTT: 0.004},
			{Name: "edge-cpu", Profile: cpu, Link: netmodel.NewStatic("wifi-b", netmodel.Mbps(uplinkMbps*0.6), 0.006), RTT: 0.006},
		},
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, User{
			Name:       "u" + string(rune('a'+i%26)),
			Model:      models[i%len(models)],
			Device:     devices[i%len(devices)],
			Rate:       2 + float64(i%3),
			Deadline:   0.3,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(1000 + i),
		})
	}
	return sc
}

func checkPlanInvariants(t *testing.T, sc *Scenario, p *Plan) {
	t.Helper()
	if len(p.Decisions) != len(sc.Users) {
		t.Fatalf("decisions = %d, want %d", len(p.Decisions), len(sc.Users))
	}
	compute := make([]float64, len(sc.Servers))
	bandwidth := make([]float64, len(sc.Servers))
	for i, d := range p.Decisions {
		if err := d.Plan.Validate(); err != nil {
			t.Errorf("user %d plan invalid: %v", i, err)
		}
		if d.Server >= 0 {
			if d.ComputeShare <= 0 || d.BandwidthShare <= 0 {
				t.Errorf("user %d zero shares: %+v", i, d)
			}
			compute[d.Server] += d.ComputeShare
			bandwidth[d.Server] += d.BandwidthShare
		}
		if l := d.Latency(); l <= 0 || math.IsInf(l, 0) || math.IsNaN(l) {
			t.Errorf("user %d degenerate latency %g", i, l)
		}
	}
	for s := range sc.Servers {
		if compute[s] > 1+1e-6 {
			t.Errorf("server %d compute over-allocated: %g", s, compute[s])
		}
		if bandwidth[s] > 1+1e-6 {
			t.Errorf("server %d bandwidth over-allocated: %g", s, bandwidth[s])
		}
	}
	if p.Objective <= 0 {
		t.Errorf("objective = %g", p.Objective)
	}
}

func TestPlannerBasic(t *testing.T) {
	sc := testScenario(t, 8, 40)
	planner := &Planner{}
	plan, err := planner.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, sc, plan)
	if plan.Iterations < 1 || plan.Iterations > 12 {
		t.Errorf("iterations = %d", plan.Iterations)
	}
	if plan.PlannerName != "joint" {
		t.Errorf("name = %q", plan.PlannerName)
	}
}

func TestTrajectoryNonIncreasing(t *testing.T) {
	sc := testScenario(t, 10, 30)
	plan, err := (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Trajectory) < 2 {
		t.Fatalf("trajectory too short: %v", plan.Trajectory)
	}
	for i := 1; i < len(plan.Trajectory); i++ {
		// Deadline constraints can force sub-epsilon regressions; anything
		// larger indicates a broken step.
		if plan.Trajectory[i] > plan.Trajectory[i-1]*1.01 {
			t.Errorf("objective rose at round %d: %v", i, plan.Trajectory)
		}
	}
}

func TestJointBeatsAblations(t *testing.T) {
	sc := testScenario(t, 12, 25)
	full, err := (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	surgeryOnly, err := (&Planner{Opt: Options{DisableAllocation: true}}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	allocOnly, err := (&Planner{Opt: Options{DisableSurgery: true}}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	neither, err := (&Planner{Opt: Options{DisableSurgery: true, DisableAllocation: true}}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective > surgeryOnly.Objective*1.001 {
		t.Errorf("joint %.5g worse than surgery-only %.5g", full.Objective, surgeryOnly.Objective)
	}
	if full.Objective > allocOnly.Objective*1.001 {
		t.Errorf("joint %.5g worse than alloc-only %.5g", full.Objective, allocOnly.Objective)
	}
	if full.Objective > neither.Objective*1.001 {
		t.Errorf("joint %.5g worse than neither %.5g", full.Objective, neither.Objective)
	}
	if surgeryOnly.PlannerName != "surgery-only" || allocOnly.PlannerName != "alloc-only" || neither.PlannerName != "neither" {
		t.Errorf("ablation names: %q %q %q", surgeryOnly.PlannerName, allocOnly.PlannerName, neither.PlannerName)
	}
}

func TestPlanWithAssignmentMatchesStructure(t *testing.T) {
	sc := testScenario(t, 4, 30)
	assign := []int{0, 1, 0, 1}
	plan, err := PlanWithAssignment(sc, Options{}, assign)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, sc, plan)
	for i, d := range plan.Decisions {
		// Fully local decisions may ignore the assignment; offloading ones
		// must respect it.
		if d.Plan.Partition < sc.Users[i].Model.NumUnits() && d.Server != assign[i] {
			t.Errorf("user %d on server %d, want %d", i, d.Server, assign[i])
		}
	}
	if _, err := PlanWithAssignment(sc, Options{}, []int{0}); err == nil {
		t.Error("expected error for wrong assignment length")
	}
	if _, err := PlanWithAssignment(sc, Options{}, []int{0, 1, 0, 9}); err == nil {
		t.Error("expected error for unknown server")
	}
}

func TestSimBridgeRuns(t *testing.T) {
	sc := testScenario(t, 6, 40)
	plan, res, err := PlanAndSimulate(sc, &Planner{}, 30, sim.DedicatedShares)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, sc, plan)
	if len(res.Records) == 0 {
		t.Fatal("no simulated tasks")
	}
	// The simulated mean should be within a factor ~2 of the analytic
	// objective/weight-sum (queueing adds on top of expectation).
	var wsum float64
	for range sc.Users {
		wsum++
	}
	analyticMean := plan.Objective / wsum
	simMean := res.Latencies().Mean()
	if simMean < analyticMean*0.5 || simMean > analyticMean*4 {
		t.Errorf("sim mean %.4g far from analytic %.4g", simMean, analyticMean)
	}
}

func TestDispatcherAdaptsToBandwidthDrop(t *testing.T) {
	sc := testScenario(t, 4, 50)
	disp, err := NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	before := disp.Current()
	// Count offloaded work before.
	offBefore := 0
	for _, d := range before.Decisions {
		if d.Plan.Partition < d.Plan.Model.NumUnits() {
			offBefore++
		}
	}
	// Collapse both uplinks to 100 kbps.
	after, err := disp.Observe(nil, []float64{1e5, 1e5})
	if err != nil {
		t.Fatal(err)
	}
	offAfter := 0
	for _, d := range after.Decisions {
		if d.Plan.Partition < d.Plan.Model.NumUnits() {
			offAfter++
		}
	}
	if offAfter > offBefore {
		t.Errorf("offloading grew after bandwidth collapse: %d -> %d", offBefore, offAfter)
	}
	// At 100 kbps a user may only keep offloading if its device cannot
	// sustain its arrival rate locally (device-stability constraint).
	// rate * full-local time <= rho is a conservative certificate that a
	// stable local plan existed.
	for i, d := range after.Decisions {
		if d.Plan.Partition >= d.Plan.Model.NumUnits() {
			continue
		}
		u := &sc.Users[i]
		if u.Rate*u.Device.ModelTime(u.Model) <= 0.9 {
			t.Errorf("user %d still offloads at 100 kbps although local is stable (rate %.3g, local %.3gs)",
				i, u.Rate, u.Device.ModelTime(u.Model))
		}
	}
	if _, err := disp.Observe(nil, []float64{1e6}); err == nil {
		t.Error("expected error for wrong rate count")
	}
}

func TestDispatcherObserveWindow(t *testing.T) {
	sc := testScenario(t, 3, 20)
	link, err := netmodel.NewFading("fade", netmodel.FadingConfig{
		States: []float64{netmodel.Mbps(1), netmodel.Mbps(40)}, MeanDwell: 5,
		Horizon: 500, RTT: 0.004, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.Servers[0].Link = link
	disp, err := NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := disp.ObserveWindow(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, sc, p)
}

func TestScenarioValidation(t *testing.T) {
	if err := (&Scenario{}).Validate(); err == nil {
		t.Error("empty scenario validated")
	}
	pi, _ := hardware.ByName("rpi4")
	sc := &Scenario{Users: []User{{Name: "x", Device: pi}}}
	if err := sc.Validate(); err == nil {
		t.Error("user without model validated")
	}
	sc = &Scenario{
		Users:   []User{{Name: "x", Model: dnn.AlexNet(), Device: pi}},
		Servers: []Server{{Name: "s", Profile: pi, Link: netmodel.NewStatic("l", 1e6, 0)}},
	}
	if err := sc.Validate(); err == nil {
		t.Error("device profile accepted as server")
	}

	// Every mutation below must be rejected, and the error must name the
	// offending index.
	cases := []struct {
		name    string
		mutate  func(sc *Scenario)
		wantSub string
	}{
		{"nan rate", func(sc *Scenario) { sc.Users[1].Rate = math.NaN() }, "user 1"},
		{"inf deadline", func(sc *Scenario) { sc.Users[2].Deadline = math.Inf(1) }, "user 2"},
		{"negative provision", func(sc *Scenario) { sc.Users[0].ProvisionRate = -1 }, "user 0"},
		{"nan weight", func(sc *Scenario) { sc.Users[0].Weight = math.NaN() }, "user 0"},
		{"accuracy above 1", func(sc *Scenario) { sc.Users[1].MinAccuracy = 1.5 }, "user 1"},
		{"inf compression", func(sc *Scenario) { sc.Users[0].TxCompression = math.Inf(1) }, "user 0"},
		{"nan horizon", func(sc *Scenario) { sc.PlanningHorizon = math.NaN() }, "horizon"},
		{"zero capacity", func(sc *Scenario) {
			p := *sc.Servers[1].Profile
			p.PeakFLOPS = 0
			sc.Servers[1].Profile = &p
		}, "server 1"},
		{"zero uplink", func(sc *Scenario) {
			sc.Servers[0].Link = deadLink{}
		}, "server 0"},
		{"negative rtt", func(sc *Scenario) { sc.Servers[1].RTT = -0.001 }, "server 1"},
	}
	for _, tc := range cases {
		sc := testScenario(t, 3, 30)
		tc.mutate(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.wantSub)
		}
	}
	if err := testScenario(t, 3, 30).Validate(); err != nil {
		t.Errorf("healthy scenario rejected: %v", err)
	}
}

// deadLink is a link whose rate is always zero — constructible only in
// tests (netmodel constructors reject non-positive rates) but exactly what
// a buggy hand-built scenario could contain.
type deadLink struct{}

func (deadLink) Name() string                 { return "dead" }
func (deadLink) RateAt(t float64) float64     { return 0 }
func (deadLink) NextChange(t float64) float64 { return math.Inf(1) }
func (deadLink) RTT() float64                 { return 0 }

func TestNoServersScenario(t *testing.T) {
	// The joint planner (and therefore the dispatcher) requires servers to
	// optimize over; device-only studies use the local-only baseline. A
	// serverless scenario must fail up front rather than silently degrade.
	pi, _ := hardware.ByName("rpi4")
	sc := &Scenario{
		Users: []User{{
			Name: "solo", Model: dnn.MobileNetV2(), Device: pi,
			Rate: 1, Difficulty: workload.EasyBiased,
		}},
	}
	if _, err := (&Planner{}).Plan(sc); err == nil {
		t.Error("planning a zero-server scenario succeeded")
	}
	if _, err := NewDispatcher(sc, &Planner{}); err == nil {
		t.Error("dispatcher accepted a zero-server scenario")
	}
}

func TestMinAccuracyPropagates(t *testing.T) {
	sc := testScenario(t, 4, 30)
	for i := range sc.Users {
		sc.Users[i].MinAccuracy = 0.75
	}
	plan, err := (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Decisions {
		if d.Eval.Accuracy+1e-9 < 0.75 {
			t.Errorf("user %d accuracy %.4f below floor", i, d.Eval.Accuracy)
		}
	}
}

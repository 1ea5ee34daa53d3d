package serve

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/workload"
)

// testScenario builds a small two-server scenario with static uplinks.
func testScenario(t testing.TB, nUsers int, uplinkMbps float64) *joint.Scenario {
	t.Helper()
	byName := func(name string) *hardware.Profile {
		p, err := hardware.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	devices := []*hardware.Profile{byName("rpi4"), byName("phone-soc"), byName("jetson-nano")}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "edge-gpu", Profile: byName("edge-gpu-t4"),
				Link: netmodel.NewStatic("wifi-a", netmodel.Mbps(uplinkMbps), 0.004), RTT: 0.004},
			{Name: "edge-cpu", Profile: byName("edge-cpu-16c"),
				Link: netmodel.NewStatic("wifi-b", netmodel.Mbps(uplinkMbps*0.6), 0.006), RTT: 0.006},
		},
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name:       fmt.Sprintf("u%02d", i),
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

func newRuntime(t *testing.T, policy Policy) *Runtime {
	t.Helper()
	rt, err := New(Config{Scenario: testScenario(t, 4, 40), Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestIngestValidation(t *testing.T) {
	rt := newRuntime(t, Hysteresis())
	before := rt.Current()
	mbps := netmodel.Mbps

	cases := []struct {
		name    string
		sample  telemetry.Sample
		typed   bool // expect *joint.BadObservationError
		server  int
		mention string
	}{
		{"nan time", telemetry.Sample{Time: math.NaN()}, true, -1, "sample time"},
		{"nan uplink", telemetry.Sample{Time: 1, Uplinks: []float64{math.NaN(), mbps(10)}}, true, 0, "server 0"},
		{"inf uplink", telemetry.Sample{Time: 1, Uplinks: []float64{mbps(10), math.Inf(1)}}, true, 1, "server 1"},
		{"negative uplink", telemetry.Sample{Time: 1, Uplinks: []float64{mbps(10), -5}}, true, 1, "is negative"},
		{"short uplinks", telemetry.Sample{Time: 1, Uplinks: []float64{mbps(10)}}, true, -1, "uplink rate count 1 does not match the 2 servers"},
		{"long health", telemetry.Sample{Time: 1, Health: []bool{true, true, true}}, true, -1, "health state count 3 does not match the 2 servers"},
	}
	for _, tc := range cases {
		_, err := rt.Ingest(tc.sample)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.typed {
			var obs *joint.BadObservationError
			if !errors.As(err, &obs) {
				t.Fatalf("%s: error %T is not *joint.BadObservationError", tc.name, err)
			}
			if obs.Server != tc.server {
				t.Fatalf("%s: error names server %d, want %d", tc.name, obs.Server, tc.server)
			}
		}
		if !strings.Contains(err.Error(), tc.mention) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.mention)
		}
		if rt.Current() != before {
			t.Fatalf("%s: rejected sample replaced the plan", tc.name)
		}
		if rt.Clock() != 0 {
			t.Fatalf("%s: rejected sample advanced the clock", tc.name)
		}
	}
	if got := rt.Metrics().Counter("serve.samples_rejected").Value(); got != int64(len(cases)) {
		t.Fatalf("samples_rejected = %d, want %d", got, len(cases))
	}
	if got := rt.Metrics().Counter("serve.samples").Value(); got != 0 {
		t.Fatalf("samples = %d, want 0", got)
	}

	// The clock is monotone: a sample before the last accepted one is
	// rejected with a time-ordering error.
	if _, err := rt.Ingest(telemetry.Sample{Time: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Ingest(telemetry.Sample{Time: 9}); err == nil || !strings.Contains(err.Error(), "precedes the virtual clock") {
		t.Fatalf("time regression accepted (err=%v)", err)
	}
}

func TestAlwaysReplanPolicy(t *testing.T) {
	rt := newRuntime(t, AlwaysReplan())
	mbps := netmodel.Mbps
	for i, rate := range []float64{38, 36, 44, 40} {
		if _, err := rt.Ingest(telemetry.Sample{
			Time: float64(i), Uplinks: []float64{mbps(rate), mbps(rate * 0.6)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.FullReplans(); got != 4 {
		t.Fatalf("full replans = %d, want 4 (one per drifted sample)", got)
	}
	if got := rt.Journal().CountKind(EventFullReplan); got != 4 {
		t.Fatalf("journal full-replans = %d", got)
	}
}

func TestHysteresisDebounceAndBudget(t *testing.T) {
	policy := Policy{RelChange: 0.2, MinInterval: 10, Budget: 2, Window: 100}
	rt := newRuntime(t, policy)
	mbps := netmodel.Mbps
	ingest := func(tm, rateMbps float64) {
		t.Helper()
		if _, err := rt.Ingest(telemetry.Sample{
			Time: tm, Uplinks: []float64{mbps(rateMbps), mbps(rateMbps * 0.6)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	ingest(1, 39) // 2.5% drift: below threshold -> cheap refresh
	if rt.FullReplans() != 0 || rt.Journal().CountKind(EventCheapRefresh) != 1 {
		t.Fatalf("small drift triggered a full replan (journal:\n%s)", rt.Journal())
	}
	ingest(12, 20) // 50% drift, interval satisfied -> full replan
	if rt.FullReplans() != 1 {
		t.Fatalf("big drift did not replan (journal:\n%s)", rt.Journal())
	}
	ingest(15, 40) // 100% drift vs plan rates, but only 3s since last full -> deferred
	if rt.FullReplans() != 1 || rt.Journal().CountKind(EventDeferredInterval) != 1 {
		t.Fatalf("min-interval debounce failed (journal:\n%s)", rt.Journal())
	}
	ingest(30, 60) // second full replan, budget now exhausted inside the window
	if rt.FullReplans() != 2 {
		t.Fatalf("second replan missing (journal:\n%s)", rt.Journal())
	}
	ingest(50, 20) // over budget -> deferred
	if rt.FullReplans() != 2 || rt.Journal().CountKind(EventDeferredBudget) != 1 {
		t.Fatalf("budget cap failed (journal:\n%s)", rt.Journal())
	}
	ingest(140, 20) // window slid past both replans -> full again
	if rt.FullReplans() != 3 {
		t.Fatalf("budget window did not slide (journal:\n%s)", rt.Journal())
	}
	if got := rt.Metrics().Counter("serve.replans.deferred").Value(); got != 2 {
		t.Fatalf("deferred counter = %d, want 2", got)
	}
}

func TestNeverReplanPolicyPinsPlan(t *testing.T) {
	rt := newRuntime(t, NeverReplan())
	initial := rt.Current()
	mbps := netmodel.Mbps
	for i := 0; i < 3; i++ {
		plan, err := rt.Ingest(telemetry.Sample{
			Time:    float64(i),
			Uplinks: []float64{mbps(5), mbps(3)},
			Health:  []bool{i%2 == 0, true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan != initial {
			t.Fatal("never-replan policy changed the plan")
		}
	}
	if rt.FullReplans() != 0 || rt.Metrics().Counter("serve.replans.cheap").Value() != 0 {
		t.Fatal("never-replan policy touched the dispatcher")
	}
	if got := rt.Journal().CountKind(EventNoChange); got != 3 {
		t.Fatalf("no-change events = %d, want 3", got)
	}
}

func TestHealthFlipsRideTheCheapPath(t *testing.T) {
	rt := newRuntime(t, Hysteresis())
	base := rt.Current()

	plan, err := rt.Ingest(telemetry.Sample{Time: 1, Health: []bool{false, true}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.FullReplans() != 0 {
		t.Fatal("health flip triggered a full replan")
	}
	if !strings.HasSuffix(plan.PlannerName, "+failover") {
		t.Fatalf("failover plan named %q", plan.PlannerName)
	}
	for ui, d := range plan.Decisions {
		if d.Server == 0 {
			t.Fatalf("user %d still assigned to the crashed server", ui)
		}
	}

	// Recovery restores the pristine plan through the dispatcher.
	plan, err = rt.Ingest(telemetry.Sample{Time: 2, Health: []bool{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective != base.Objective {
		t.Fatalf("recovery objective %g, want pristine %g", plan.Objective, base.Objective)
	}
	if got := rt.Metrics().Counter("dispatcher.restores").Value(); got != 1 {
		t.Fatalf("dispatcher.restores = %d, want 1", got)
	}
}

func TestFullReplanReappliesHealth(t *testing.T) {
	rt := newRuntime(t, AlwaysReplan())
	mbps := netmodel.Mbps
	// Crash server 0, then drift: the full replan must keep users off the
	// crashed server even though the fresh planner knows nothing of it.
	if _, err := rt.Ingest(telemetry.Sample{Time: 1, Health: []bool{false, true}}); err != nil {
		t.Fatal(err)
	}
	plan, err := rt.Ingest(telemetry.Sample{Time: 2, Uplinks: []float64{mbps(30), mbps(20)}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.FullReplans() != 1 {
		t.Fatalf("full replans = %d, want 1", rt.FullReplans())
	}
	for ui, d := range plan.Decisions {
		if d.Server == 0 {
			t.Fatalf("user %d assigned to the crashed server after full replan", ui)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{RelChange: math.NaN()},
		{RelChange: -1},
		{MinInterval: math.Inf(1)},
		{Budget: -1},
		{Budget: 2}, // budget without window
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d accepted: %+v", i, p)
		}
	}
	for _, p := range []Policy{AlwaysReplan(), NeverReplan(), Hysteresis()} {
		if err := p.Validate(); err != nil {
			t.Errorf("stock policy rejected: %v", err)
		}
	}
}

package edgesurgeon_test

import (
	"fmt"
	"testing"
	"time"

	"edgesurgeon"
)

func publicScenario(t testing.TB) *edgesurgeon.Scenario {
	if t != nil {
		t.Helper()
	}
	return &edgesurgeon.Scenario{
		Servers: []edgesurgeon.Server{{
			Name:    "edge-gpu",
			Profile: edgesurgeon.MustHardware("edge-gpu-t4"),
			Link:    edgesurgeon.StaticLink("wifi", edgesurgeon.Mbps(40), 4*time.Millisecond),
			RTT:     0.004,
		}},
		Users: []edgesurgeon.User{
			{
				Name: "camera-1", Model: edgesurgeon.MustModel("resnet18"),
				Device: edgesurgeon.MustHardware("rpi4"),
				Rate:   3, Deadline: 0.3,
				Difficulty: edgesurgeon.EasyBiased, Arrivals: edgesurgeon.Poisson, Seed: 1,
			},
			{
				Name: "camera-2", Model: edgesurgeon.MustModel("mobilenetv2"),
				Device: edgesurgeon.MustHardware("phone-soc"),
				Rate:   8, Deadline: 0.15,
				Difficulty: edgesurgeon.EasyBiased, Arrivals: edgesurgeon.Poisson, Seed: 2,
			},
		},
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sc := publicScenario(t)
	plan, res, err := edgesurgeon.PlanAndSimulate(sc, edgesurgeon.NewPlanner(), 30, edgesurgeon.DedicatedShares)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Decisions) != 2 {
		t.Fatalf("decisions = %d", len(plan.Decisions))
	}
	if len(res.Records) == 0 {
		t.Fatal("no simulated tasks")
	}
	if res.DeadlineRate() < 0.8 {
		t.Errorf("deadline rate %.3f suspiciously low for an easy scenario", res.DeadlineRate())
	}
	if res.MeanDeviceEnergy() <= 0 {
		t.Error("no energy accounting")
	}
}

func TestPublicBaselines(t *testing.T) {
	sc := publicScenario(t)
	jp, err := edgesurgeon.NewPlanner().Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range edgesurgeon.Baselines() {
		bp, err := s.Plan(sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if names[s.Name()] {
			t.Errorf("duplicate baseline name %q", s.Name())
		}
		names[s.Name()] = true
		if jp.Objective > bp.Objective*1.001 {
			t.Errorf("joint %.5g worse than %s %.5g", jp.Objective, s.Name(), bp.Objective)
		}
	}
	if len(names) != 5 {
		t.Errorf("baseline count = %d", len(names))
	}
}

func TestPublicSurgery(t *testing.T) {
	m := edgesurgeon.MustModel("vgg16")
	env := edgesurgeon.SurgeryEnv{
		Device:       edgesurgeon.MustHardware("rpi4"),
		Server:       edgesurgeon.MustHardware("edge-gpu-t4"),
		ComputeShare: 1, UplinkBps: edgesurgeon.Mbps(20), BandwidthShare: 1,
		RTT: 0.004, Difficulty: edgesurgeon.EasyBiased,
	}
	plan, ev, err := edgesurgeon.OptimizeSurgery(m, env, edgesurgeon.SurgeryOptions{
		FixedPartition: edgesurgeon.FreePartition, MinAccuracy: 0.70,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.70 {
		t.Errorf("accuracy %.3f below floor", ev.Accuracy)
	}
	if ev.Latency <= 0 {
		t.Errorf("latency %g", ev.Latency)
	}
	if err := plan.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPublicCatalogs(t *testing.T) {
	if len(edgesurgeon.Zoo()) != 8 {
		t.Errorf("zoo size = %d, want 8", len(edgesurgeon.Zoo()))
	}
	if len(edgesurgeon.Hardware()) != 6 {
		t.Errorf("hardware size = %d, want 6", len(edgesurgeon.Hardware()))
	}
	for _, name := range edgesurgeon.Models() {
		if _, err := edgesurgeon.ModelByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := edgesurgeon.ModelByName("nope"); err == nil {
		t.Error("expected error for unknown model")
	}
	if _, err := edgesurgeon.HardwareByName("nope"); err == nil {
		t.Error("expected error for unknown hardware")
	}
}

func TestPublicDispatcher(t *testing.T) {
	sc := publicScenario(t)
	disp, err := edgesurgeon.NewDispatcher(sc, edgesurgeon.NewPlanner())
	if err != nil {
		t.Fatal(err)
	}
	if disp.Current() == nil {
		t.Fatal("no initial plan")
	}
	p, err := disp.Observe(nil, []float64{edgesurgeon.Mbps(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Decisions) != 2 {
		t.Fatalf("decisions = %d", len(p.Decisions))
	}
}

func TestPublicFadingLink(t *testing.T) {
	link, err := edgesurgeon.FadingLink("wlan",
		[]float64{edgesurgeon.Mbps(2), edgesurgeon.Mbps(30)},
		5*time.Second, 10*time.Minute, 4*time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	if link.RateAt(0) <= 0 {
		t.Error("no rate at t=0")
	}
}

// ExampleNewPlanner demonstrates the minimal planning flow.
func ExampleNewPlanner() {
	sc := &edgesurgeon.Scenario{
		Servers: []edgesurgeon.Server{{
			Name:    "edge-gpu",
			Profile: edgesurgeon.MustHardware("edge-gpu-t4"),
			Link:    edgesurgeon.StaticLink("wifi", edgesurgeon.Mbps(40), 4*time.Millisecond),
			RTT:     0.004,
		}},
		Users: []edgesurgeon.User{{
			Name:   "camera-1",
			Model:  edgesurgeon.MustModel("resnet18"),
			Device: edgesurgeon.MustHardware("rpi4"),
			Rate:   3, Deadline: 0.3, Seed: 1,
		}},
	}
	plan, err := edgesurgeon.NewPlanner().Plan(sc)
	if err != nil {
		panic(err)
	}
	d := plan.Decisions[0]
	fmt.Println("decisions:", len(plan.Decisions))
	fmt.Println("offloads:", d.Plan.Partition < d.Plan.Model.NumUnits())
	fmt.Println("meets deadline:", d.Latency() <= 0.3)
	// Output:
	// decisions: 1
	// offloads: true
	// meets deadline: true
}

// ExampleOptimizeSurgery demonstrates single-user model surgery.
func ExampleOptimizeSurgery() {
	env := edgesurgeon.SurgeryEnv{
		Device:       edgesurgeon.MustHardware("rpi4"),
		Server:       edgesurgeon.MustHardware("edge-gpu-t4"),
		ComputeShare: 1, UplinkBps: edgesurgeon.Mbps(20), BandwidthShare: 1,
		RTT: 0.004, Difficulty: edgesurgeon.EasyBiased,
	}
	plan, ev, err := edgesurgeon.OptimizeSurgery(
		edgesurgeon.MustModel("vgg16"), env,
		edgesurgeon.SurgeryOptions{FixedPartition: edgesurgeon.FreePartition, MinAccuracy: 0.72},
	)
	if err != nil {
		panic(err)
	}
	fmt.Println("has exits:", len(plan.Exits) > 0)
	fmt.Println("accuracy floor met:", ev.Accuracy >= 0.72)
	// Output:
	// has exits: true
	// accuracy floor met: true
}

package baseline

import (
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

func testScenario(t testing.TB, nUsers int, uplinkMbps float64) *joint.Scenario {
	t.Helper()
	pi, _ := hardware.ByName("rpi4")
	phone, _ := hardware.ByName("phone-soc")
	gpu, _ := hardware.ByName("edge-gpu-t4")
	cpu, _ := hardware.ByName("edge-cpu-16c")
	devices := []*hardware.Profile{pi, phone}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2()}
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "gpu", Profile: gpu, Link: netmodel.NewStatic("a", netmodel.Mbps(uplinkMbps), 0.004), RTT: 0.004},
			{Name: "cpu", Profile: cpu, Link: netmodel.NewStatic("b", netmodel.Mbps(uplinkMbps), 0.006), RTT: 0.006},
		},
	}
	for i := 0; i < nUsers; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name: "u", Model: models[i%len(models)], Device: devices[i%len(devices)],
			Rate: 2, Deadline: 0.4, Difficulty: workload.EasyBiased,
			Arrivals: workload.Poisson, Seed: int64(i),
		})
	}
	return sc
}

func TestAllBaselinesProduceValidPlans(t *testing.T) {
	sc := testScenario(t, 6, 30)
	strategies := []joint.Strategy{
		LocalOnly{}, EdgeOnly{}, Neurosurgeon{}, BranchyLocal{}, Random{Seed: 5},
	}
	for _, s := range strategies {
		plan, err := s.Plan(sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.PlannerName != s.Name() {
			t.Errorf("%s: plan name %q", s.Name(), plan.PlannerName)
		}
		if len(plan.Decisions) != len(sc.Users) {
			t.Fatalf("%s: %d decisions", s.Name(), len(plan.Decisions))
		}
		for i, d := range plan.Decisions {
			if err := d.Plan.Validate(); err != nil {
				t.Errorf("%s user %d: %v", s.Name(), i, err)
			}
			if l := d.Latency(); l <= 0 {
				t.Errorf("%s user %d: latency %g", s.Name(), i, l)
			}
		}
		if plan.Objective <= 0 {
			t.Errorf("%s: objective %g", s.Name(), plan.Objective)
		}
	}
}

func TestLocalOnlyStaysLocal(t *testing.T) {
	sc := testScenario(t, 4, 30)
	plan, err := LocalOnly{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Decisions {
		// All test devices fit the test models.
		if d.Server != -1 || d.Plan.Partition != sc.Users[i].Model.NumUnits() {
			t.Errorf("user %d not local: %+v", i, d)
		}
		if len(d.Plan.Exits) != 0 {
			t.Errorf("user %d has exits", i)
		}
	}
}

func TestLocalOnlyMemoryFallback(t *testing.T) {
	mcu, _ := hardware.ByName("mcu-m7")
	sc := testScenario(t, 2, 30)
	sc.Users[0].Device = mcu
	sc.Users[0].Model = dnn.VGG16()
	plan, err := LocalOnly{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Decisions[0].Server < 0 {
		t.Error("MCU user must fall back to offload")
	}
}

func TestEdgeOnlyOffloadsEverything(t *testing.T) {
	sc := testScenario(t, 5, 30)
	plan, err := EdgeOnly{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i, d := range plan.Decisions {
		if d.Plan.Partition != 0 || d.Server < 0 {
			t.Errorf("user %d not offloaded: %+v", i, d)
		}
		seen[d.Server]++
	}
	if len(seen) < 2 {
		t.Errorf("edge-only did not balance across servers: %v", seen)
	}
}

func TestNeurosurgeonNoExits(t *testing.T) {
	sc := testScenario(t, 4, 10)
	plan, err := Neurosurgeon{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Decisions {
		if len(d.Plan.Exits) != 0 {
			t.Errorf("user %d has exits %v", i, d.Plan.Exits)
		}
	}
}

func TestBranchyLocalUsesExitsOnDevice(t *testing.T) {
	sc := testScenario(t, 4, 30)
	for i := range sc.Users {
		sc.Users[i].Difficulty = workload.EasyBiased
	}
	plan, err := BranchyLocal{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	anyExits := false
	for i, d := range plan.Decisions {
		if d.Plan.Partition != sc.Users[i].Model.NumUnits() {
			t.Errorf("user %d offloads", i)
		}
		if len(d.Plan.Exits) > 0 {
			anyExits = true
		}
	}
	if !anyExits {
		t.Error("branchy-local chose no exits for an easy-biased stream on slow devices")
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	sc := testScenario(t, 5, 30)
	a, err := Random{Seed: 7}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random{Seed: 7}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Errorf("same seed, different objectives: %g vs %g", a.Objective, b.Objective)
	}
	c, err := Random{Seed: 8}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective == c.Objective {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestJointBeatsAllBaselines(t *testing.T) {
	sc := testScenario(t, 9, 20)
	jp, err := (&joint.Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []joint.Strategy{LocalOnly{}, EdgeOnly{}, Neurosurgeon{}, BranchyLocal{}, Random{Seed: 3}} {
		bp, err := s.Plan(sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if jp.Objective > bp.Objective*1.001 {
			t.Errorf("joint %.5g worse than %s %.5g", jp.Objective, s.Name(), bp.Objective)
		}
	}
}

func TestExhaustiveAtLeastAsGoodAsJoint(t *testing.T) {
	sc := testScenario(t, 5, 15)
	jp, err := (&joint.Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := ExhaustiveAssignment{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Objective > jp.Objective*1.001 {
		t.Errorf("exhaustive %.6g worse than joint %.6g", ep.Objective, jp.Objective)
	}
	gap := (jp.Objective - ep.Objective) / ep.Objective
	if gap > 0.10 {
		t.Errorf("joint optimality gap %.1f%% too large", gap*100)
	}
}

func TestExhaustiveRefusesLargeN(t *testing.T) {
	sc := testScenario(t, 9, 30)
	if _, err := (ExhaustiveAssignment{}).Plan(sc); err == nil {
		t.Error("expected intractability error")
	}
}

// TestBaselinesStartFromThePlannerAssignment: a baseline's servers are the
// planner's initial assignment, which ranks users by their planning rate
// (ProvisionRate when set). User A observes 1 task/s but is provisioned for
// 10, so it outranks B at 5 and takes the first server; ranking by the
// observed Rate would put B there instead.
func TestBaselinesStartFromThePlannerAssignment(t *testing.T) {
	gpu, _ := hardware.ByName("edge-gpu-t4")
	pi, _ := hardware.ByName("rpi4")
	link := netmodel.NewStatic("l", netmodel.Mbps(30), 0.004)
	m := dnn.ResNet18()
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "s0", Profile: gpu, Link: link, RTT: 0.004},
			{Name: "s1", Profile: gpu, Link: link, RTT: 0.004},
		},
		Users: []joint.User{
			{Name: "A", Model: m, Device: pi, Rate: 1, ProvisionRate: 10, Difficulty: workload.EasyBiased, Arrivals: workload.Poisson, Seed: 1},
			{Name: "B", Model: m, Device: pi, Rate: 5, Difficulty: workload.EasyBiased, Arrivals: workload.Poisson, Seed: 2},
		},
	}
	want := joint.InitialAssignment(sc)
	if want[0] != 0 || want[1] != 1 {
		t.Fatalf("planner assignment %v, want [0 1]", want)
	}
	plan, err := EdgeOnly{}.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Decisions {
		if d.Server != want[i] {
			t.Errorf("edge-only puts user %s on server %d, the planner on %d", sc.Users[i].Name, d.Server, want[i])
		}
	}
	// Without servers every user stays on its device.
	if got := joint.InitialAssignment(&joint.Scenario{Users: sc.Users}); got[0] != -1 || got[1] != -1 {
		t.Errorf("serverless assignment %v, want [-1 -1]", got)
	}
}

// Microbenchmarks of the planner and of the pipeline it drives: a full
// plan with and without a shared table set, a table set's registration, the
// simulator's event loop on a planned scenario, and plan plus simulate end
// to end. The simulator's benchmarks live here because they start from a
// joint plan, and internal/sim cannot import joint.

package joint_test

import (
	"fmt"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// BenchmarkJointPlan measures full planning of a 16-user scenario.
func BenchmarkJointPlan(b *testing.B) {
	sc := benchScenario(b, 16)
	planner := &joint.Planner{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJointPlanFrontier is BenchmarkJointPlan on a shared table set:
// the first iteration fills the cells the plan reads, and every later one
// runs no optimizer at all — the reuse a replan at unchanged rates gets. The
// measured loop is planning alone, for a direct comparison against
// BenchmarkJointPlan.
func BenchmarkJointPlanFrontier(b *testing.B) {
	sc := benchScenario(b, 16)
	set, err := joint.BuildFrontierSet(sc, joint.Options{}, surgery.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	planner := &joint.Planner{Opt: joint.Options{Frontiers: set}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Plan(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildFrontierSet measures registering a whole table set — what a
// full replan in serve and every cold start pay before planning; no optimizer
// runs, the plan fills the cells it reads — on the benchmark's
// control_replay mix: 5 (device, model) classes in front of 4 alternating
// GPU/CPU servers at 100/70/90/60 Mbit/s, so 5 device-only and 20 server-side
// tables per iteration, each on a kernel of its own.
func BenchmarkBuildFrontierSet(b *testing.B) {
	gpu, _ := hardware.ByName("edge-gpu-t4")
	cpu, _ := hardware.ByName("edge-cpu-16c")
	sc := &joint.Scenario{}
	for s, mbps := range []float64{100, 70, 90, 60} {
		srv := joint.Server{Name: fmt.Sprint("g", s), Profile: gpu, Link: netmodel.NewStatic("l", netmodel.Mbps(mbps), 0.004), RTT: 0.004}
		if s%2 == 1 {
			srv = joint.Server{Name: fmt.Sprint("c", s), Profile: cpu, Link: netmodel.NewStatic("l", netmodel.Mbps(mbps), 0.006), RTT: 0.006}
		}
		sc.Servers = append(sc.Servers, srv)
	}
	for i, c := range []struct {
		device string
		model  *dnn.Model
	}{
		{"phone-soc", dnn.ResNet18()}, {"phone-soc", dnn.AlexNet()}, {"phone-soc", dnn.MobileNetV2()},
		{"rpi4", dnn.SqueezeNet()}, {"jetson-nano", dnn.VGG16()},
	} {
		dev, err := hardware.ByName(c.device)
		if err != nil {
			b.Fatal(err)
		}
		sc.Users = append(sc.Users, joint.User{
			Name: "u", Model: c.model, Device: dev,
			Rate: 0.05, Deadline: 0.08, Difficulty: workload.EasyBiased,
			Arrivals: workload.Poisson, Seed: int64(i),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := joint.BuildFrontierSet(sc, joint.Options{}, surgery.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if set.Len() != 25 {
			b.Fatalf("built %d tables, want 25", set.Len())
		}
	}
}

func benchScenario(b *testing.B, n int) *joint.Scenario {
	b.Helper()
	pi, _ := hardware.ByName("rpi4")
	phone, _ := hardware.ByName("phone-soc")
	gpu, _ := hardware.ByName("edge-gpu-t4")
	cpu, _ := hardware.ByName("edge-cpu-16c")
	sc := &joint.Scenario{
		Servers: []joint.Server{
			{Name: "g", Profile: gpu, Link: netmodel.NewStatic("a", netmodel.Mbps(40), 0.004), RTT: 0.004},
			{Name: "c", Profile: cpu, Link: netmodel.NewStatic("b", netmodel.Mbps(25), 0.006), RTT: 0.006},
		},
	}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2()}
	devs := []*hardware.Profile{pi, phone}
	for i := 0; i < n; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name: "u", Model: models[i%3], Device: devs[i%2],
			Rate: 2, Deadline: 0.3, Difficulty: workload.EasyBiased,
			Arrivals: workload.Poisson, Seed: int64(i),
		})
	}
	return sc
}

// BenchmarkSimulator measures the event-loop throughput: tasks/op with
// queueing, transfers and early exits.
func BenchmarkSimulator(b *testing.B) {
	sc := benchScenario(b, 8)
	plan, err := (&joint.Planner{}).Plan(sc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := joint.BuildSimConfig(sc, plan, 30, sim.DedicatedShares)
	var tasks int
	for _, u := range cfg.Users {
		tasks += len(u.Tasks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkEndToEnd measures plan + simulate of a 12-user scenario over a
// 30-second horizon — the full pipeline a deployment would run.
func BenchmarkEndToEnd(b *testing.B) {
	sc := benchScenario(b, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := joint.PlanAndSimulate(sc, &joint.Planner{}, 30, sim.DedicatedShares); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmarks regenerating every evaluation artifact (BenchmarkExperiments,
// one sub-benchmark per experiment spec) plus microbenchmarks for the
// performance-critical kernels: the surgery DP, the allocation water-fill,
// the simulator event loop and the nn matmul.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure's data:
//
//	go test -bench='BenchmarkExperiments/E4$' -benchtime=1x
package edgesurgeon

import (
	"fmt"
	"math/rand"
	"testing"

	"edgesurgeon/internal/alloc"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/experiments"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/nn"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// BenchmarkExperiments runs each experiment once per iteration, its
// CI-sized variant where it has one (`experiments -quick`); the
// regenerated tables are the artifact, the benchmark time is the cost of
// regenerating them.
func BenchmarkExperiments(b *testing.B) {
	for _, s := range experiments.Specs {
		b.Run(s.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Report(true); err != nil {
					b.Fatalf("%s: %v", s.ID, err)
				}
			}
		})
	}
}

// --- microbenchmarks -----------------------------------------------------

func benchEnv(b *testing.B) surgery.Env {
	b.Helper()
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		b.Fatal(err)
	}
	return surgery.Env{
		Device: dev, Server: srv,
		ComputeShare: 0.5, UplinkBps: netmodel.Mbps(25), BandwidthShare: 0.5,
		RTT: 0.004, Difficulty: workload.EasyBiased,
	}
}

// BenchmarkSurgeryOptimize measures one full per-user surgery optimization
// (the inner kernel of the planner's surgery step) on ResNet34, the model
// with the most exit candidates.
func BenchmarkSurgeryOptimize(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surgery.Optimize(m, env, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurgeryOptimizeConstrained adds the accuracy-constrained DP.
func BenchmarkSurgeryOptimizeConstrained(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition, MinAccuracy: 0.72}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surgery.Optimize(m, env, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontierLookup measures one lookup of a filled frontier-table
// cell — what the planner's hot loop pays where BenchmarkSurgeryOptimize is
// the cost of filling one. Table construction happens before the timer, as
// it does in production (once per scenario, amortized over every lookup).
func BenchmarkFrontierLookup(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition}
	key := surgery.KeyOf(m, env, opt)
	set := surgery.NewFrontierSet(surgery.BuildOptions{Surgery: opt})
	if err := set.Build(key); err != nil {
		b.Fatal(err)
	}
	table := set.Get(key)
	grid := set.Grid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := grid.Value(i % grid.Levels())
		bw := grid.Value((i * 7) % grid.Levels())
		if plan, _, known, _ := table.Lookup(f, bw); !known || plan.Model == nil {
			b.Fatal("empty frontier lookup")
		}
	}
}

// BenchmarkSurgeryEvaluate measures a single plan evaluation.
func BenchmarkSurgeryEvaluate(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	cand := m.ExitCandidates()
	plan := surgery.Plan{Model: m, Exits: cand[2:6], Theta: 0.2, Partition: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surgery.Evaluate(plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocDeadlineAware measures the per-server allocation kernel at
// a realistic fan-in of 32 users.
func BenchmarkAllocDeadlineAware(b *testing.B) {
	demands := make([]alloc.Demand, 32)
	for i := range demands {
		demands[i] = alloc.Demand{
			Fixed:    0.01 + float64(i%5)*0.002,
			Server:   0.002 + float64(i%7)*0.001,
			Tx:       0.001 + float64(i%3)*0.002,
			Deadline: 0.3,
			Rate:     2,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.DeadlineAware(demands)
	}
}

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

// BenchmarkNNMatMul measures the parallel matmul kernel (128x256 * 256x128).
func BenchmarkNNMatMul(b *testing.B) {
	a := nn.NewMatrix(128, 256)
	c := nn.NewMatrix(256, 128)
	for i := range a.Data {
		a.Data[i] = float64(i%17) * 0.1
	}
	for i := range c.Data {
		c.Data[i] = float64(i%13) * 0.1
	}
	dst := nn.NewMatrix(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.MatMul(dst, a, c)
	}
	b.SetBytes(int64(128 * 256 * 128 * 8))
}

// BenchmarkNNTrainEpoch measures one training epoch of the multi-exit MLP
// on 2000 samples of E12's concentric-rings task.
func BenchmarkNNTrainEpoch(b *testing.B) {
	ds, err := nn.Rings(nn.RingsConfig{
		Samples: 2000, Features: 10, Classes: 5, BandWidth: 1.2, Jitter: 0.35, Seed: 101,
	})
	if err != nil {
		b.Fatal(err)
	}
	net, err := nn.NewMultiExit(nn.Config{In: 10, Hidden: []int{32, 32, 32}, Exits: []int{0, 1}, Classes: 5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainEpoch(ds, 32, 0.05, 0.9, rng)
	}
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

package joint

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

// millionUserScenario builds the memory-scale fixture: nUsers cycling over
// three device classes and four shared model instances (pointer-shared, so
// the surgery tables stay per-population-class, not
// per-user) across nServers alternating GPU/CPU servers. The same population
// mix as the E23/E26 studies, sized for the SoA representation test.
func millionUserScenario(nUsers, nServers int) *Scenario {
	byName := func(name string) *hardware.Profile {
		p, err := hardware.ByName(name)
		if err != nil {
			panic(err)
		}
		return p
	}
	devices := []*hardware.Profile{byName("rpi4"), byName("phone-soc"), byName("jetson-nano")}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}
	sc := &Scenario{}
	for s := 0; s < nServers; s++ {
		prof, mbps, rtt := "edge-gpu-t4", 100.0, 0.004
		if s%2 == 1 {
			prof, mbps, rtt = "edge-cpu-16c", 70.0, 0.006
		}
		sc.Servers = append(sc.Servers, Server{
			Name:    fmt.Sprintf("srv%02d", s),
			Profile: byName(prof),
			Link:    netmodel.NewStatic(fmt.Sprintf("ap%02d", s), netmodel.Mbps(mbps), rtt),
			RTT:     rtt,
		})
	}
	sc.Users = make([]User, nUsers)
	for i := range sc.Users {
		sc.Users[i] = User{
			Name:       fmt.Sprintf("user%07d", i),
			Model:      models[i%len(models)],
			Device:     devices[i%len(devices)],
			Rate:       0.05,
			Deadline:   1.0,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(900000 + i),
		}
	}
	return sc
}

// TestMillionUserHierarchicalPlan is the scenario-scale acceptance check:
// a 1M-user initial hierarchical plan (and a dirty-single-shard delta
// replan on top of it) completes without exhausting memory, with every
// decision populated. It takes minutes and tens of GB, so it only runs
// when EDGESURGEON_SCALE_TESTS=1 (the acceptance run sets it; CI does not).
func TestMillionUserHierarchicalPlan(t *testing.T) {
	if os.Getenv("EDGESURGEON_SCALE_TESTS") != "1" {
		t.Skip("set EDGESURGEON_SCALE_TESTS=1 to run the 1M-user memory-scale test")
	}
	sc := millionUserScenario(1_000_000, 16)
	p := &Planner{Opt: Options{ShardThreshold: 256}}
	t0 := time.Now()
	plan, err := p.Plan(sc)
	if err != nil {
		t.Fatalf("1M-user plan: %v", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("1M-user initial plan: %.1fs, shards=%d, obj=%.4g, feasible=%t, heap=%.1f GB",
		time.Since(t0).Seconds(), plan.Shards, plan.Objective, plan.Feasible, float64(ms.HeapAlloc)/1e9)
	if len(plan.Decisions) != len(sc.Users) {
		t.Fatalf("plan has %d decisions for %d users", len(plan.Decisions), len(sc.Users))
	}
	for ui := range plan.Decisions {
		if plan.Decisions[ui].Latency() <= 0 {
			t.Fatalf("user %d has an unpopulated decision", ui)
		}
	}

	drifted := *sc
	drifted.Servers = append([]Server(nil), sc.Servers...)
	drifted.Servers[0].Link = netmodel.NewStatic("ap00-drift", sc.PlanningRate(0)*0.7, sc.Servers[0].RTT)
	dirty := make([]bool, len(sc.Servers))
	dirty[0] = true
	t1 := time.Now()
	delta, err := p.PlanDelta(&drifted, plan, dirty)
	if err != nil {
		t.Fatalf("1M-user delta replan: %v", err)
	}
	t.Logf("1M-user dirty-single-shard delta: %.1fs, ops=%d (full plan ops=%d)",
		time.Since(t1).Seconds(), delta.SurgeryOps, plan.SurgeryOps)
	if delta.DirtyShards != 1 {
		t.Fatalf("delta reports %d dirty shards, want 1", delta.DirtyShards)
	}
}

package joint

import (
	"math"
	"math/rand"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// randomScenario draws a structurally valid random scenario.
func randomScenario(rng *rand.Rand) *Scenario {
	devices := hardware.Devices()[1:] // skip MCU: not every model fits
	models := dnn.Zoo()
	servers := hardware.Servers()
	sc := &Scenario{}
	nServers := 1 + rng.Intn(3)
	for s := 0; s < nServers; s++ {
		sc.Servers = append(sc.Servers, Server{
			Name:    "s",
			Profile: servers[rng.Intn(len(servers))],
			Link:    netmodel.NewStatic("l", netmodel.Mbps(2+rng.Float64()*80), rng.Float64()*0.01),
			RTT:     rng.Float64() * 0.01,
		})
	}
	nUsers := 1 + rng.Intn(10)
	for u := 0; u < nUsers; u++ {
		usr := User{
			Name:       "u",
			Model:      models[rng.Intn(len(models))],
			Device:     devices[rng.Intn(len(devices))],
			Rate:       0.2 + rng.Float64()*4,
			Difficulty: workload.DifficultyKind(rng.Intn(4)),
			Arrivals:   workload.Poisson,
			Seed:       rng.Int63(),
		}
		if rng.Float64() < 0.5 {
			usr.Deadline = 0.1 + rng.Float64()
		}
		if rng.Float64() < 0.3 {
			usr.Weight = 0.5 + rng.Float64()*3
		}
		if rng.Float64() < 0.3 {
			usr.TxCompression = 0.25
		}
		sc.Users = append(sc.Users, usr)
	}
	return sc
}

// TestPlannerInvariantsOnRandomScenarios fuzzes the planner: every produced
// plan must satisfy the structural invariants regardless of scenario shape.
func TestPlannerInvariantsOnRandomScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	planner := &Planner{}
	for trial := 0; trial < 40; trial++ {
		sc := randomScenario(rng)
		plan, err := planner.Plan(sc)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		compute := make([]float64, len(sc.Servers))
		bandwidth := make([]float64, len(sc.Servers))
		for i, d := range plan.Decisions {
			if err := d.Plan.Validate(); err != nil {
				t.Fatalf("trial %d user %d: %v", trial, i, err)
			}
			l := d.Latency()
			if l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("trial %d user %d: latency %g", trial, i, l)
			}
			// Stability: provisioned device utilization bounded.
			u := &sc.Users[i]
			if rho := u.Rate * d.Eval.DeviceSec; rho > surgery.DeviceStabilityRho+1e-9 {
				t.Fatalf("trial %d user %d: device utilization %.3f", trial, i, rho)
			}
			if d.Server >= 0 {
				compute[d.Server] += d.ComputeShare
				bandwidth[d.Server] += d.BandwidthShare
			} else if d.Plan.Partition != u.Model.NumUnits() {
				t.Fatalf("trial %d user %d: offloading plan without server", trial, i)
			}
		}
		for s := range sc.Servers {
			if compute[s] > 1+1e-6 || bandwidth[s] > 1+1e-6 {
				t.Fatalf("trial %d server %d over-allocated: f=%g b=%g", trial, s, compute[s], bandwidth[s])
			}
		}
		// The objective must equal the weighted latency sum of decisions.
		var want float64
		for i := range plan.Decisions {
			w := sc.Users[i].Weight
			if w <= 0 {
				w = 1
			}
			want += w * plan.Decisions[i].Latency()
		}
		if math.Abs(plan.Objective-want) > 1e-9*(1+want) {
			t.Fatalf("trial %d: objective %.9g != recomputed %.9g", trial, plan.Objective, want)
		}
	}
}

// TestPlannerDeterministic demands bit-identical plans for identical
// scenarios.
func TestPlannerDeterministic(t *testing.T) {
	rng1 := rand.New(rand.NewSource(88))
	rng2 := rand.New(rand.NewSource(88))
	p := &Planner{}
	for trial := 0; trial < 10; trial++ {
		a, err := p.Plan(randomScenario(rng1))
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Plan(randomScenario(rng2))
		if err != nil {
			t.Fatal(err)
		}
		if a.Objective != b.Objective || a.Iterations != b.Iterations {
			t.Fatalf("trial %d: nondeterministic plan: %.9g/%d vs %.9g/%d",
				trial, a.Objective, a.Iterations, b.Objective, b.Iterations)
		}
		for i := range a.Decisions {
			if a.Decisions[i].Server != b.Decisions[i].Server ||
				a.Decisions[i].Plan.Partition != b.Decisions[i].Plan.Partition {
				t.Fatalf("trial %d: decisions diverge at user %d", trial, i)
			}
		}
	}
}

// monotonicitySlack is the pinned tolerance band for the planner's
// resource-monotonicity invariants. The block-coordinate planner is a
// heuristic, so "more resources never hurt" is not a theorem — a changed
// input can steer the greedy descent into a marginally different basin —
// but on the seeded scenario corpus the violation never exceeds this band,
// and the band is pinned so a regression that weakens the planner's
// monotonicity shows up as a test failure, not a silent drift.
const monotonicitySlack = 0.01

// clone returns a deep-enough copy of sc for perturbation: fresh Users and
// Servers slices (the pointed-to models, devices, and profiles are shared
// immutables).
func clone(sc *Scenario) *Scenario {
	out := *sc
	out.Users = append([]User(nil), sc.Users...)
	out.Servers = append([]Server(nil), sc.Servers...)
	return &out
}

// TestPlannerResourceMonotonicity pins the planner's monotonicity
// invariants on seeded random scenarios, for both the monolithic and the
// hierarchical sharded path: growing any resource — uplink bandwidth,
// server capacity, or the server set itself — must never worsen the
// objective beyond the pinned slack band.
func TestPlannerResourceMonotonicity(t *testing.T) {
	perturbations := []struct {
		name  string
		apply func(sc *Scenario) *Scenario
	}{
		{"double-bandwidth", func(sc *Scenario) *Scenario {
			out := clone(sc)
			for s := range out.Servers {
				rate := sc.PlanningRate(s)
				out.Servers[s].Link = netmodel.NewStatic("l2x", 2*rate, 0)
			}
			return out
		}},
		{"double-capacity", func(sc *Scenario) *Scenario {
			out := clone(sc)
			for s := range out.Servers {
				out.Servers[s].Profile = out.Servers[s].Profile.Scale(2, out.Servers[s].Profile.Name+"-2x")
			}
			return out
		}},
		{"add-server", func(sc *Scenario) *Scenario {
			out := clone(sc)
			biggest := sc.Servers[0]
			for _, s := range sc.Servers[1:] {
				if s.Profile.PeakFLOPS > biggest.Profile.PeakFLOPS {
					biggest = s
				}
			}
			extra := biggest
			extra.Name = "extra"
			out.Servers = append(out.Servers, extra)
			return out
		}},
	}
	planners := []struct {
		name string
		opt  Options
	}{
		{"monolithic", Options{}},
		{"sharded", Options{ShardThreshold: 1}},
	}
	for _, pl := range planners {
		t.Run(pl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1234))
			p := &Planner{Opt: pl.opt}
			for trial := 0; trial < 12; trial++ {
				sc := randomScenario(rng)
				// Keep the links RTT-free so double-bandwidth is a pure
				// resource increase (the random RTT would otherwise be lost
				// when the link is rebuilt).
				for s := range sc.Servers {
					sc.Servers[s].Link = netmodel.NewStatic("l", sc.PlanningRate(s), 0)
				}
				base, err := p.Plan(sc)
				if err != nil {
					t.Fatalf("trial %d: base plan: %v", trial, err)
				}
				for _, pert := range perturbations {
					grown, err := p.Plan(pert.apply(sc))
					if err != nil {
						t.Fatalf("trial %d %s: %v", trial, pert.name, err)
					}
					if grown.Objective > base.Objective*(1+monotonicitySlack) {
						t.Errorf("trial %d: %s worsened objective %.9g -> %.9g (%.2f%%)",
							trial, pert.name, base.Objective, grown.Objective,
							100*(grown.Objective/base.Objective-1))
					}
				}
			}
		})
	}
}

// TestPlannerUserRemovalMonotonicity pins the complementary invariant:
// removing a user frees resources, so the remaining users' aggregate
// weighted latency must never worsen beyond the slack band — on both
// planner paths.
func TestPlannerUserRemovalMonotonicity(t *testing.T) {
	planners := []struct {
		name string
		opt  Options
	}{
		{"monolithic", Options{}},
		{"sharded", Options{ShardThreshold: 1}},
	}
	for _, pl := range planners {
		t.Run(pl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5678))
			p := &Planner{Opt: pl.opt}
			for trial := 0; trial < 10; trial++ {
				sc := randomScenario(rng)
				if len(sc.Users) < 2 {
					continue
				}
				base, err := p.Plan(sc)
				if err != nil {
					t.Fatalf("trial %d: base plan: %v", trial, err)
				}
				drop := rng.Intn(len(sc.Users))
				reduced := clone(sc)
				reduced.Users = append(reduced.Users[:drop], reduced.Users[drop+1:]...)
				after, err := p.Plan(reduced)
				if err != nil {
					t.Fatalf("trial %d: reduced plan: %v", trial, err)
				}
				var baseRest, afterRest float64
				ai := 0
				for i := range sc.Users {
					if i == drop {
						continue
					}
					baseRest += sc.Users[i].weight() * base.Decisions[i].Latency()
					afterRest += reduced.Users[ai].weight() * after.Decisions[ai].Latency()
					ai++
				}
				if afterRest > baseRest*(1+monotonicitySlack) {
					t.Errorf("trial %d: removing user %d worsened the rest %.9g -> %.9g (%.2f%%)",
						trial, drop, baseRest, afterRest, 100*(afterRest/baseRest-1))
				}
			}
		})
	}
}

// TestBestSnapshotNeverWorseThanTrajectoryMin verifies the returned
// objective equals the minimum over the recorded trajectory (the
// best-snapshot guarantee).
func TestBestSnapshotNeverWorseThanTrajectoryMin(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := &Planner{Opt: Options{MaxIters: 8, Epsilon: 1e-12}}
	for trial := 0; trial < 15; trial++ {
		plan, err := p.Plan(randomScenario(rng))
		if err != nil {
			t.Fatal(err)
		}
		min := math.Inf(1)
		// Trajectory[0] is pre-allocation; the snapshot starts at [1].
		for _, v := range plan.Trajectory[1:] {
			if v < min {
				min = v
			}
		}
		if plan.Objective > min+1e-9*(1+min) {
			t.Fatalf("trial %d: objective %.9g above trajectory minimum %.9g", trial, plan.Objective, min)
		}
	}
}

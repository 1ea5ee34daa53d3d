// Package baseline implements the comparison strategies the evaluation
// pits against the joint planner:
//
//   - LocalOnly    — run everything on the device (no offload).
//   - EdgeOnly     — ship raw inputs to the server (full offload),
//     equal shares.
//   - Neurosurgeon — per-user optimal partition point, no early exits,
//     equal shares (Kang et al.'s partition-only planner).
//   - BranchyLocal — early exits on the device only, no offload
//     (BranchyNet-style on-device multi-exit inference).
//   - Random       — random partition/exits/threshold, equal shares.
//
// The ablation arms (surgery-only, allocation-only, neither) are the joint
// planner itself with the corresponding steps disabled (see joint.Options).
// ExhaustiveAssignment, the optimality reference for small instances, also
// lives here.
package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/surgery"
)

// balancedAssign spreads users across servers by normalized work, matching
// the joint planner's initial assignment so baselines differ only in the
// decisions under study.
func balancedAssign(sc *joint.Scenario) []int {
	server := make([]int, len(sc.Users))
	if len(sc.Servers) == 0 {
		for i := range server {
			server[i] = -1
		}
		return server
	}
	load := make([]float64, len(sc.Servers))
	order := make([]int, len(sc.Users))
	for i := range order {
		order[i] = i
	}
	work := func(ui int) float64 {
		u := &sc.Users[ui]
		return float64(u.Model.TotalFLOPs()) * math.Max(u.Rate, 0.01)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && work(order[j]) > work(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, ui := range order {
		best, bestLoad := 0, math.Inf(1)
		for s := range sc.Servers {
			l := load[s] / sc.Servers[s].Profile.PeakFLOPS
			if l < bestLoad {
				best, bestLoad = s, l
			}
		}
		server[ui] = best
		load[best] += work(ui)
	}
	return server
}

// buildEnv constructs the surgery environment for user ui under decision d.
func buildEnv(sc *joint.Scenario, ui int, d *joint.Decision) surgery.Env {
	u := &sc.Users[ui]
	env := surgery.Env{
		Device:     u.Device,
		Difficulty: u.Difficulty,
		Curves:     sc.Curves,
		TxFactor:   u.TxCompression,
	}
	if d.Server >= 0 {
		srv := &sc.Servers[d.Server]
		env.Server = srv.Profile
		env.ComputeShare = d.ComputeShare
		env.BandwidthShare = d.BandwidthShare
		env.UplinkBps = sc.PlanningRate(d.Server)
		env.RTT = srv.RTT
	}
	return env
}

// finishPlan fills equal shares, evaluates every decision, and computes the
// objective and deadline feasibility.
func finishPlan(sc *joint.Scenario, name string, ds []joint.Decision) (*joint.Plan, error) {
	counts := make(map[int]int)
	for i := range ds {
		if ds[i].Server >= 0 {
			counts[ds[i].Server]++
		}
	}
	feasible := true
	var obj float64
	for i := range ds {
		if ds[i].Server >= 0 {
			n := float64(counts[ds[i].Server])
			ds[i].ComputeShare = 1 / n
			ds[i].BandwidthShare = 1 / n
		}
		ev, err := surgery.Evaluate(ds[i].Plan, buildEnv(sc, i, &ds[i]))
		if err != nil {
			return nil, fmt.Errorf("baseline %s: user %d: %w", name, i, err)
		}
		ds[i].Eval = ev
		u := &sc.Users[i]
		w := u.Weight
		if w <= 0 {
			w = 1
		}
		obj += w * ds[i].Latency()
		if u.Deadline > 0 && ds[i].Latency() > u.Deadline {
			feasible = false
		}
	}
	return &joint.Plan{
		Decisions:   ds,
		Objective:   obj,
		Feasible:    feasible,
		Iterations:  1,
		PlannerName: name,
	}, nil
}

// LocalOnly runs every model entirely on its device. Users whose devices
// cannot hold their model fall back to full offload (the only executable
// choice), which the plan records honestly.
type LocalOnly struct{}

// Name implements joint.Strategy.
func (LocalOnly) Name() string { return "local-only" }

// Plan implements joint.Strategy.
func (LocalOnly) Plan(sc *joint.Scenario) (*joint.Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	assign := balancedAssign(sc)
	ds := make([]joint.Decision, len(sc.Users))
	for i := range sc.Users {
		u := &sc.Users[i]
		if u.Device.FitsModel(u.Model) {
			ds[i].Plan = surgery.LocalOnly(u.Model)
			ds[i].Server = -1
		} else {
			if len(sc.Servers) == 0 {
				return nil, fmt.Errorf("baseline local-only: %s does not fit on %s and there is no server", u.Model.Name, u.Device.Name)
			}
			ds[i].Plan = surgery.FullOffload(u.Model)
			ds[i].Server = assign[i]
		}
	}
	return finishPlan(sc, "local-only", ds)
}

// EdgeOnly ships every raw input to a balanced-assigned server with equal
// shares.
type EdgeOnly struct{}

// Name implements joint.Strategy.
func (EdgeOnly) Name() string { return "edge-only" }

// Plan implements joint.Strategy.
func (EdgeOnly) Plan(sc *joint.Scenario) (*joint.Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(sc.Servers) == 0 {
		return nil, fmt.Errorf("baseline edge-only: scenario has no servers")
	}
	assign := balancedAssign(sc)
	ds := make([]joint.Decision, len(sc.Users))
	for i := range sc.Users {
		ds[i].Plan = surgery.FullOffload(sc.Users[i].Model)
		ds[i].Server = assign[i]
	}
	return finishPlan(sc, "edge-only", ds)
}

// Neurosurgeon chooses each user's latency-optimal partition point with no
// early exits and equal shares — the canonical partition-only planner.
type Neurosurgeon struct{}

// Name implements joint.Strategy.
func (Neurosurgeon) Name() string { return "neurosurgeon" }

// Plan implements joint.Strategy.
func (Neurosurgeon) Plan(sc *joint.Scenario) (*joint.Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	assign := balancedAssign(sc)
	counts := make(map[int]int)
	for _, s := range assign {
		if s >= 0 {
			counts[s]++
		}
	}
	ds := make([]joint.Decision, len(sc.Users))
	for i := range sc.Users {
		ds[i].Server = assign[i]
		if assign[i] >= 0 {
			n := float64(counts[assign[i]])
			ds[i].ComputeShare = 1 / n
			ds[i].BandwidthShare = 1 / n
		}
		env := buildEnv(sc, i, &ds[i])
		plan, _, err := surgery.Optimize(sc.Users[i].Model, env, surgery.Options{
			NoExits: true, FixedPartition: surgery.FreePartition,
		})
		if err != nil {
			return nil, fmt.Errorf("baseline neurosurgeon: user %d: %w", i, err)
		}
		ds[i].Plan = plan
	}
	return finishPlan(sc, "neurosurgeon", ds)
}

// BranchyLocal optimizes exits with everything pinned to the device — the
// on-device multi-exit baseline. Devices that cannot hold their model fall
// back to full offload.
type BranchyLocal struct{}

// Name implements joint.Strategy.
func (BranchyLocal) Name() string { return "branchy-local" }

// Plan implements joint.Strategy.
func (BranchyLocal) Plan(sc *joint.Scenario) (*joint.Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	assign := balancedAssign(sc)
	ds := make([]joint.Decision, len(sc.Users))
	for i := range sc.Users {
		u := &sc.Users[i]
		if !u.Device.FitsModel(u.Model) {
			if len(sc.Servers) == 0 {
				return nil, fmt.Errorf("baseline branchy-local: %s does not fit on %s", u.Model.Name, u.Device.Name)
			}
			ds[i].Plan = surgery.FullOffload(u.Model)
			ds[i].Server = assign[i]
			continue
		}
		ds[i].Server = -1
		env := buildEnv(sc, i, &ds[i])
		opt := surgery.Options{FixedPartition: u.Model.NumUnits(), MinAccuracy: u.MinAccuracy}
		plan, _, err := surgery.Optimize(u.Model, env, opt)
		if err != nil {
			return nil, fmt.Errorf("baseline branchy-local: user %d: %w", i, err)
		}
		ds[i].Plan = plan
	}
	return finishPlan(sc, "branchy-local", ds)
}

// Random picks a uniformly random feasible partition, a random subset of
// exits and a random threshold for every user — the sanity-check floor.
type Random struct {
	Seed int64
}

// Name implements joint.Strategy.
func (Random) Name() string { return "random" }

// Plan implements joint.Strategy.
func (r Random) Plan(sc *joint.Scenario) (*joint.Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	assign := balancedAssign(sc)
	ds := make([]joint.Decision, len(sc.Users))
	for i := range sc.Users {
		u := &sc.Users[i]
		m := u.Model
		n := m.NumUnits()
		fits := u.Device.FitsModel(m)
		var p int
		if len(sc.Servers) == 0 {
			p = n
		} else if fits {
			p = rng.Intn(n + 1)
		} else {
			p = 0
		}
		ds[i].Server = -1
		if p < n {
			ds[i].Server = assign[i]
		}
		var exits []int
		for _, c := range m.ExitCandidates() {
			if c < n && rng.Float64() < 0.3 {
				exits = append(exits, c)
			}
		}
		theta := rng.Float64() * 0.8
		ds[i].Plan = surgery.Plan{Model: m, Exits: exits, Theta: theta, Partition: p}
	}
	return finishPlan(sc, "random", ds)
}

// ExhaustiveAssignment is the optimality reference for small instances: it
// enumerates every user-to-server assignment and, for each, runs the
// alternating surgery/allocation refinement to convergence, returning the
// best plan found. Cost is K^N; it refuses N > 8.
type ExhaustiveAssignment struct{}

// Name implements joint.Strategy.
func (ExhaustiveAssignment) Name() string { return "exhaustive" }

// Plan implements joint.Strategy.
func (ExhaustiveAssignment) Plan(sc *joint.Scenario) (*joint.Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	n := len(sc.Users)
	k := len(sc.Servers)
	if k == 0 {
		return nil, fmt.Errorf("baseline exhaustive: needs servers")
	}
	if n > 8 {
		return nil, fmt.Errorf("baseline exhaustive: %d users is intractable (max 8)", n)
	}
	inner := joint.Options{DisableReassignment: true}

	var best *joint.Plan
	assign := make([]int, n)
	var recurse func(i int) error
	recurse = func(i int) error {
		if i == n {
			plan, err := joint.PlanWithAssignment(sc, inner, assign)
			if err != nil {
				return err
			}
			if best == nil || plan.Objective < best.Objective {
				best = plan
			}
			return nil
		}
		for s := 0; s < k; s++ {
			assign[i] = s
			if err := recurse(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	best.PlannerName = "exhaustive"
	return best, nil
}

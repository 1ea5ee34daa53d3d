package experiments

import (
	"fmt"
	"math"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
)

// e26Drift returns a copy of sc with server s's uplink replaced by a static
// link at factor × its current planning-time mean rate — the frozen-scenario
// shape of drift the control plane's replans see.
func e26Drift(sc *joint.Scenario, s int, factor float64) *joint.Scenario {
	out := *sc
	out.Servers = append([]joint.Server(nil), sc.Servers...)
	rate := sc.PlanningRate(s) * factor
	out.Servers[s].Link = netmodel.NewStatic(sc.Servers[s].Name+"-drift", rate, sc.Servers[s].RTT)
	return &out
}

// e26Replan times the incremental delta-replan path against a same-state
// full replan. Per size: plan the e23 population with the hierarchical
// sharded planner, drift one server's uplink to 0.7× (a single dirty
// shard), then replan the drifted scenario both ways from the same previous
// plan. The speedup is the tentpole claim — a dirty-single-shard delta
// replan is O(shard), not O(n) — and the objective gap pins that the saved
// work costs at most 1% of plan quality.
func e26Replan(r *Report, sizes []int, nServers, shardThreshold int) error {
	r.Title = fmt.Sprintf("Delta replan vs full replan, single dirty shard (%d servers)", nServers)
	t := r.table("Replan wall-clock, full vs dirty-single-shard delta",
		"users", "full(s)", "delta(s)", "speedup", "gap(%)", "delta ops/full ops")

	var usersMax int
	var fullSecLargest, deltaSecLargest, speedupLargest, gapLargest, opsFracLargest float64
	for _, n := range sizes {
		sc := e26Drift(e23Scenario(n, nServers), 0, 1.0) // normalize links to static form
		p := &joint.Planner{Opt: joint.Options{ShardThreshold: shardThreshold}}
		prev, err := p.Plan(sc)
		if err != nil {
			return fmt.Errorf("E26 initial plan n=%d: %w", n, err)
		}
		drifted := e26Drift(sc, 0, 0.7)
		dirty := make([]bool, nServers)
		dirty[0] = true

		full, fullSec, err := timed(func() (*joint.Plan, error) { return p.Plan(drifted) })
		if err != nil {
			return fmt.Errorf("E26 full replan n=%d: %w", n, err)
		}
		delta, deltaSec, err := timed(func() (*joint.Plan, error) { return p.PlanDelta(drifted, prev, dirty) })
		if err != nil {
			return fmt.Errorf("E26 delta replan n=%d: %w", n, err)
		}

		speedup := fullSec / math.Max(deltaSec, 1e-9)
		gap := 100 * (delta.Objective - full.Objective) / full.Objective
		opsFrac := float64(delta.SurgeryOps) / math.Max(float64(full.SurgeryOps), 1)
		t.AddRow(n, fmt.Sprintf("%.3f", fullSec), fmt.Sprintf("%.4f", deltaSec),
			fmt.Sprintf("%.1fx", speedup), fmt.Sprintf("%+.3f", gap), fmt.Sprintf("%.4f", opsFrac))
		if n >= usersMax {
			usersMax = n
			fullSecLargest, deltaSecLargest = fullSec, deltaSec
			speedupLargest, gapLargest, opsFracLargest = speedup, gap, opsFrac
		}
	}
	r.Metrics["users_max"] = float64(usersMax)
	r.Metrics["full_replan_sec"] = fullSecLargest
	r.Metrics["delta_replan_sec"] = deltaSecLargest
	r.Metrics["replan_speedup"] = speedupLargest
	r.Metrics["delta_gap_pct"] = gapLargest
	r.Metrics["delta_ops_frac"] = opsFracLargest
	r.Metrics["dirty_shards"] = 1
	r.note("at %d users a single-dirty-shard delta replan is %.1fx faster than a full replan (%.4f s vs %.3f s), objective gap %+.3f%%",
		usersMax, speedupLargest, deltaSecLargest, fullSecLargest, gapLargest)
	return nil
}

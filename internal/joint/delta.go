package joint

import "fmt"

// This file implements incremental delta-replanning — the control plane's
// answer to drift that touches a few servers out of many. A full replan
// re-derives every decision from equal shares (O(n) surgery across all
// shards plus global reconciliation); PlanDelta instead warm-starts from
// the previous plan's decisions, re-optimizes only the shards whose inputs
// actually changed (the "dirty" servers, as judged by the caller's drift
// tracking), and runs capacity-reconciliation rounds whose donor set is
// restricted to the dirty shards plus whatever shards an accepted
// migration touched. The work is therefore O(dirty shard sizes), not O(n):
// clean shards contribute only their (unchanged) objective terms, and with
// the SoA user state plus the per-state move arena a single-dirty-shard
// replan allocates O(shard) as well.
//
// The contract is deliberately weaker than Plan's: a delta plan is a
// refinement of the previous plan under the new conditions, not a global
// re-solve. Decisions on clean servers are carried over verbatim —
// including their Evals, which were computed at the previous planning-time
// rates; sub-threshold drift on a clean link is the approximation the
// caller accepted when it declared the shard clean. The differential suite
// pins the result within 1% of a same-state full replan on seeded drift
// traces, and the E26 study records the measured gap at scale.

// PlanDelta replans only the dirty shards of a previously planned scenario.
// sc must be the drifted scenario (same users and servers as the one prev
// was planned against — only link rates and profiles may have changed);
// dirty[s] marks server s's shard for re-planning. Decisions of users on
// clean servers are preserved bit-for-bit. The previous plan is never
// mutated. With no dirty shard the previous decisions are returned
// unchanged (fresh counters, "+delta" planner name).
//
// Budget semantics match Plan: Options.SurgeryBudget bounds the
// deterministic scheduled-work ledger, overruns return *AbortedError and no
// partial plan, and the charge points all sit on orchestration code, so an
// abort fires at the same point of every run.
func (p *Planner) PlanDelta(sc *Scenario, prev *Plan, dirty []bool) (*Plan, error) {
	if err := sc.validateForPlanning(); err != nil {
		return nil, err
	}
	if prev == nil || len(prev.Decisions) != len(sc.Users) {
		got := 0
		if prev != nil {
			got = len(prev.Decisions)
		}
		return nil, fmt.Errorf("joint: previous plan has %d decisions for %d users", got, len(sc.Users))
	}
	if len(dirty) != len(sc.Servers) {
		return nil, fmt.Errorf("joint: dirty mask covers %d servers, scenario has %d", len(dirty), len(sc.Servers))
	}
	for ui := range prev.Decisions {
		if s := prev.Decisions[ui].Server; s >= len(sc.Servers) {
			return nil, fmt.Errorf("joint: previous plan assigns user %d to unknown server %d", ui, s)
		}
	}
	opt := p.opts()
	nDirty := len(DirtyServers(dirty))
	name := p.Name() + "+delta"
	ds := append([]Decision(nil), prev.Decisions...)
	if nDirty == 0 {
		// Nothing drifted: the previous decisions are already the answer.
		return &Plan{Decisions: ds, Objective: prev.Objective, Feasible: prev.Feasible, PlannerName: name}, nil
	}

	// Warm start: the previous decisions verbatim, uplinks resolved from the
	// drifted scenario. Per-server feasibility is seeded from the
	// carried-over decisions' deadline satisfaction — the allocator's
	// stability bound is re-checked only on shards that actually
	// re-allocate, which dirty shards (and any shard a reconciliation move
	// touches) always do.
	st := newState(sc, opt, buildUserSoA(sc))
	st.seedDecisions(ds, workOrder(st.hot))
	for ui := range ds {
		if d := st.hot.deadline[ui]; d > 0 && ds[ui].Server >= 0 && ds[ui].Latency() > d {
			st.srvFeasible[ds[ui].Server] = false
		}
	}

	// Phase 1: re-converge each dirty shard in isolation, warm-started from
	// the previous shares — the loop a full sharded plan runs cold on every
	// shard. Ascending server order keeps the pass deterministic.
	shardIters := 0
	for s := range dirty {
		if !dirty[s] {
			continue
		}
		iters, err := st.converge(s, false)
		if err != nil {
			return nil, err
		}
		shardIters = max(shardIters, iters)
	}

	// Phase 2: scoped capacity reconciliation, cross-check and assembly —
	// the tail shared with the full sharded plan. Donors start as the dirty
	// shards (only they can have become the wrong home for their users);
	// every server remains a legal target.
	return st.settle(append([]bool(nil), dirty...), &Plan{PlannerName: name, DirtyShards: nDirty, Iterations: shardIters})
}

// DirtyServers returns the indices flagged in a dirty mask, ascending — the
// canonical order journal entries and tests report dirty-shard sets in.
func DirtyServers(dirty []bool) []int {
	var out []int
	for s, d := range dirty {
		if d {
			out = append(out, s)
		}
	}
	return out
}

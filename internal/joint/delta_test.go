package joint

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
)

// driftLink returns a copy of sc with server s's link replaced by a static
// link at factor × the current planning-time rate — the shape of drift the
// control plane's frozen-scenario replans see.
func driftLink(sc *Scenario, s int, factor float64) *Scenario {
	out := *sc
	out.Servers = append([]Server(nil), sc.Servers...)
	out.Servers[s].Link = netmodel.NewStatic(sc.Servers[s].Name+"-drift", sc.meanUplink(s)*factor, 0)
	return &out
}

// deltaPair plans sc fully (sharded route), drifts the flagged servers by
// the given factors, and returns the full replan and the delta replan of
// the drifted scenario.
func deltaPair(t *testing.T, sc *Scenario, drift map[int]float64) (full, delta *Plan, drifted *Scenario) {
	t.Helper()
	p := &Planner{Opt: Options{ShardThreshold: 1}}
	prev, err := p.Plan(sc)
	if err != nil {
		t.Fatalf("initial plan: %v", err)
	}
	drifted = sc
	dirty := make([]bool, len(sc.Servers))
	for s, f := range drift {
		drifted = driftLink(drifted, s, f)
		dirty[s] = true
	}
	full, err = p.Plan(drifted)
	if err != nil {
		t.Fatalf("full replan: %v", err)
	}
	delta, err = p.PlanDelta(drifted, prev, dirty)
	if err != nil {
		t.Fatalf("delta replan: %v", err)
	}
	if delta.DirtyShards != len(drift) {
		t.Fatalf("delta reports %d dirty shards, drifted %d", delta.DirtyShards, len(drift))
	}
	return full, delta, drifted
}

// TestDeltaDifferentialGap pins the delta-replan contract: across seeded
// random scenarios and drift patterns (single-server slowdowns, speedups,
// and two-server drift), the delta replan's objective is never more than 1%
// worse than a same-state full replan, and the delta plan satisfies every
// structural invariant a full plan does.
func TestDeltaDifferentialGap(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	patterns := []map[int]float64{
		{0: 0.5},
		{0: 0.7},
		{1: 1.6},
		{0: 0.6, 1: 1.4},
	}
	for i := 0; i < 12; i++ {
		sc := randomWideScenario(rng, 48)
		drift := map[int]float64{}
		for s, f := range patterns[i%len(patterns)] {
			if s < len(sc.Servers) {
				drift[s] = f
			}
		}
		full, delta, drifted := deltaPair(t, sc, drift)
		checkPlanStructure(t, drifted, delta)
		if gap := relativeGap(full, delta); gap > maxDifferentialGap {
			t.Errorf("scenario %d: delta objective %.6g vs full %.6g (gap %.2f%% > 1%%)",
				i, delta.Objective, full.Objective, gap*100)
		}
	}
}

// TestDeltaParallelismInvariance pins that a delta replan against a table
// set built and then extended for the drift (ExtendFrontierSet, the control
// plane's delta path) on pools of 1, 2 and 4 goroutines is byte-identical at
// every width — decisions, objective, trajectory, work ledger and hit/miss
// tally — and that every width adds the same tables.
func TestDeltaParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8181))
	for i := 0; i < 4; i++ {
		sc := randomWideScenario(rng, 40)
		drifted := driftLink(sc, 0, 0.55)
		dirty := make([]bool, len(sc.Servers))
		dirty[0] = true
		var ref *Plan
		var refAdded int
		for _, procs := range []int{1, 2, 4} {
			var delta *Plan
			var added int
			atProcs(procs, func() {
				set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				p := &Planner{Opt: Options{ShardThreshold: 1, Frontiers: set}}
				prev, err := p.Plan(sc)
				if err != nil {
					t.Fatalf("scenario %d procs %d: initial plan: %v", i, procs, err)
				}
				added = ExtendFrontierSet(set, drifted, p.Opt, dirty)
				if delta, err = p.PlanDelta(drifted, prev, dirty); err != nil {
					t.Fatalf("scenario %d procs %d: delta replan: %v", i, procs, err)
				}
			})
			if ref == nil {
				ref, refAdded = delta, added
				if added == 0 {
					t.Fatalf("scenario %d: the drift added no tables", i)
				}
				continue
			}
			if added != refAdded {
				t.Fatalf("scenario %d procs %d: extension added %d tables, one goroutine %d", i, procs, added, refAdded)
			}
			if !reflect.DeepEqual(ref, delta) {
				samePlanModuloCounters(t, fmt.Sprintf("scenario %d procs %d", i, procs), delta, ref)
				t.Fatalf("scenario %d procs %d: trajectory, ledger or tally differ (ops %d vs %d, tally %d/%d vs %d/%d)",
					i, procs, delta.SurgeryOps, ref.SurgeryOps, delta.FrontierHits, delta.FrontierMisses, ref.FrontierHits, ref.FrontierMisses)
			}
		}
	}
}

// TestDeltaNoDirtyFastPath pins the no-op contract: an all-clean mask
// returns the previous decisions verbatim with fresh counters, charging no
// surgery work at all.
func TestDeltaNoDirtyFastPath(t *testing.T) {
	sc := offloadScenario(6)
	p := &Planner{Opt: Options{ShardThreshold: 1}}
	prev, err := p.Plan(sc)
	if err != nil {
		t.Fatalf("initial plan: %v", err)
	}
	delta, err := p.PlanDelta(sc, prev, make([]bool, len(sc.Servers)))
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if !reflect.DeepEqual(prev.Decisions, delta.Decisions) {
		t.Fatalf("no-dirty delta changed decisions")
	}
	if delta.SurgeryOps != 0 || delta.DirtyShards != 0 || delta.Iterations != 0 {
		t.Fatalf("no-dirty delta charged work: ops=%d dirty=%d iters=%d",
			delta.SurgeryOps, delta.DirtyShards, delta.Iterations)
	}
	if delta.Objective != prev.Objective {
		t.Fatalf("no-dirty delta objective %g != prev %g", delta.Objective, prev.Objective)
	}
	// The returned plan must be detached from prev.
	delta.Decisions[0].ComputeShare = -1
	if prev.Decisions[0].ComputeShare == -1 {
		t.Fatalf("no-dirty delta aliases the previous plan's decisions")
	}
}

// TestDeltaCleanShardPreservation pins that on a non-contended scenario a
// single-shard drift leaves the clean shard's decisions byte-identical to
// the previous plan — the O(dirty) work contract made observable.
func TestDeltaCleanShardPreservation(t *testing.T) {
	sc := offloadScenario(8)
	p := &Planner{Opt: Options{ShardThreshold: 1}}
	prev, err := p.Plan(sc)
	if err != nil {
		t.Fatalf("initial plan: %v", err)
	}
	drifted := driftLink(sc, 0, 0.9)
	dirty := make([]bool, len(sc.Servers))
	dirty[0] = true
	delta, err := p.PlanDelta(drifted, prev, dirty)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	// If no reconciliation migration crossed shards (the non-contended
	// regime: the user sets per server are unchanged), every clean-shard
	// decision must be untouched.
	same := true
	for ui := range delta.Decisions {
		if delta.Decisions[ui].Server != prev.Decisions[ui].Server {
			same = false
			break
		}
	}
	if !same {
		t.Skip("reconciliation migrated users; preservation invariant not applicable")
	}
	for ui := range delta.Decisions {
		if prev.Decisions[ui].Server == 1 && !reflect.DeepEqual(prev.Decisions[ui], delta.Decisions[ui]) {
			t.Fatalf("user %d on clean shard changed", ui)
		}
	}
}

// TestDeltaBudgetAbort pins that PlanDelta honors the deterministic
// surgery-op budget with the same all-or-nothing semantics as Plan.
func TestDeltaBudgetAbort(t *testing.T) {
	sc := offloadScenario(8)
	p := &Planner{Opt: Options{ShardThreshold: 1}}
	prev, err := p.Plan(sc)
	if err != nil {
		t.Fatalf("initial plan: %v", err)
	}
	drifted := driftLink(sc, 0, 0.5)
	dirty := make([]bool, len(sc.Servers))
	dirty[0] = true
	bp := &Planner{Opt: Options{ShardThreshold: 1, SurgeryBudget: 3}}
	_, err = bp.PlanDelta(drifted, prev, dirty)
	var abort *AbortedError
	if !errors.As(err, &abort) {
		t.Fatalf("expected *AbortedError, got %v", err)
	}
}

// TestDeltaValidation pins the argument checks: mismatched decision or mask
// lengths and out-of-range server indices are rejected up front.
func TestDeltaValidation(t *testing.T) {
	sc := offloadScenario(4)
	p := &Planner{Opt: Options{ShardThreshold: 1}}
	prev, err := p.Plan(sc)
	if err != nil {
		t.Fatalf("initial plan: %v", err)
	}
	if _, err := p.PlanDelta(sc, nil, make([]bool, len(sc.Servers))); err == nil {
		t.Fatalf("nil previous plan accepted")
	}
	if _, err := p.PlanDelta(sc, prev, make([]bool, len(sc.Servers)+1)); err == nil {
		t.Fatalf("oversized dirty mask accepted")
	}
	bad := clonePlan(prev)
	bad.Decisions[0].Server = len(sc.Servers) + 3
	if _, err := p.PlanDelta(sc, bad, make([]bool, len(sc.Servers))); err == nil {
		t.Fatalf("out-of-range server index accepted")
	}
}

// TestDeltaMuchCheaperThanFull pins the O(shard) work claim on the ledger
// (not wall-clock, which CI can't trust): a single-dirty-shard delta replan
// on a many-server scenario charges a small fraction of the full replan's
// surgery ops.
func TestDeltaMuchCheaperThanFull(t *testing.T) {
	rng := rand.New(rand.NewSource(8282))
	sc := randomWideScenario(rng, 60)
	for len(sc.Servers) < 4 {
		sc = randomWideScenario(rng, 60)
	}
	full, delta, _ := deltaPair(t, sc, map[int]float64{0: 0.6})
	if full.SurgeryOps == 0 {
		t.Fatalf("full replan charged no work")
	}
	if frac := float64(delta.SurgeryOps) / float64(full.SurgeryOps); frac > 0.8 {
		t.Errorf("delta charged %d ops vs full %d (%.0f%%): not O(shard)",
			delta.SurgeryOps, full.SurgeryOps, frac*100)
	}
	if math.IsNaN(delta.Objective) || delta.Objective <= 0 {
		t.Fatalf("bad delta objective %g", delta.Objective)
	}
}

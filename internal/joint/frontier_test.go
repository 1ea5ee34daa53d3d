package joint

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// samePlanModuloCounters compares everything that describes the deployment
// — decisions, objective, feasibility — while ignoring the cache/frontier
// tallies, which legitimately differ between the two arms.
func samePlanModuloCounters(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	if !reflect.DeepEqual(a.Decisions, b.Decisions) {
		for i := range a.Decisions {
			if !reflect.DeepEqual(a.Decisions[i], b.Decisions[i]) {
				t.Fatalf("%s: decision %d diverged:\n  a: %+v\n  b: %+v", label, i, a.Decisions[i], b.Decisions[i])
			}
		}
		t.Fatalf("%s: decisions diverged", label)
	}
	if a.Objective != b.Objective || a.Feasible != b.Feasible || a.Iterations != b.Iterations {
		t.Fatalf("%s: objective/feasible/iterations diverged: (%g,%t,%d) vs (%g,%t,%d)",
			label, a.Objective, a.Feasible, a.Iterations, b.Objective, b.Feasible, b.Iterations)
	}
}

// TestFrontierPathMatchesOptimizerPath is the acceptance differential: a
// planner answering every surgery subproblem from built frontier tables
// must emit bit-identical plans to one that snaps to the same grid but
// misses on every lookup (an empty table set → pure optimizer fallback),
// across the monolithic and sharded routes at several parallelism levels.
func TestFrontierPathMatchesOptimizerPath(t *testing.T) {
	sc := testScenario(t, 12, 40)
	for _, par := range []int{1, 4} {
		for _, thresh := range []int{0, 6} {
			label := fmt.Sprintf("par=%d thresh=%d", par, thresh)
			opt := Options{Parallelism: par, ShardThreshold: thresh}
			set, err := BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if set.Len() == 0 {
				t.Fatalf("%s: no tables built", label)
			}
			hot := opt
			hot.Frontiers = set
			cold := opt
			cold.Frontiers = surgery.NewFrontierSet(surgery.BuildOptions{Surgery: opt.Surgery})

			hotPlan, err := (&Planner{Opt: hot}).Plan(sc)
			if err != nil {
				t.Fatalf("%s: frontier plan: %v", label, err)
			}
			coldPlan, err := (&Planner{Opt: cold}).Plan(sc)
			if err != nil {
				t.Fatalf("%s: fallback plan: %v", label, err)
			}
			samePlanModuloCounters(t, label, hotPlan, coldPlan)
			checkPlanInvariants(t, sc, hotPlan)

			if hotPlan.FrontierHits == 0 {
				t.Errorf("%s: built tables produced no hits", label)
			}
			if coldPlan.FrontierHits != 0 {
				t.Errorf("%s: empty table set reported %d hits", label, coldPlan.FrontierHits)
			}
			if coldPlan.FrontierMisses == 0 {
				t.Errorf("%s: empty table set reported no misses", label)
			}
			if hotPlan.FrontierHits+hotPlan.FrontierMisses != coldPlan.FrontierHits+coldPlan.FrontierMisses {
				t.Errorf("%s: lookup volume diverged: %d+%d vs %d+%d", label,
					hotPlan.FrontierHits, hotPlan.FrontierMisses, coldPlan.FrontierHits, coldPlan.FrontierMisses)
			}
		}
	}
}

// TestFrontierCountersAndMetrics pins the telemetry contract: with tables
// the planner.frontier.* series mirror the plan's tallies; without
// Options.Frontiers no frontier series may even exist (the legacy metrics
// rendering is byte-pinned elsewhere).
func TestFrontierCountersAndMetrics(t *testing.T) {
	sc := testScenario(t, 6, 40)
	reg := telemetry.NewRegistry()
	opt := Options{Metrics: reg}
	set, err := BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
	if err != nil {
		t.Fatal(err)
	}
	opt.Frontiers = set
	plan, err := (&Planner{Opt: opt}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FrontierHits+plan.FrontierMisses == 0 {
		t.Fatal("frontier path planned without a single lookup")
	}
	if got := reg.Counter("planner.frontier.hits").Value(); got != plan.FrontierHits {
		t.Errorf("registry hits %d != plan hits %d", got, plan.FrontierHits)
	}
	if got := reg.Counter("planner.frontier.misses").Value(); got != plan.FrontierMisses {
		t.Errorf("registry misses %d != plan misses %d", got, plan.FrontierMisses)
	}

	legacyReg := telemetry.NewRegistry()
	legacyPlan, err := (&Planner{Opt: Options{Metrics: legacyReg}}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if legacyPlan.FrontierHits != 0 || legacyPlan.FrontierMisses != 0 {
		t.Errorf("legacy path reported frontier traffic: %d/%d", legacyPlan.FrontierHits, legacyPlan.FrontierMisses)
	}
	var text strings.Builder
	legacyReg.WriteText(&text)
	if strings.Contains(text.String(), "frontier") {
		t.Errorf("legacy metrics rendering grew frontier series:\n%s", text.String())
	}
}

// TestBuildFrontierSetDeterminismAndBudget: two builds of the same scenario
// agree exactly, parallel and serial builds agree, and a table budget
// truncates the popularity-ordered key list instead of erroring.
func TestBuildFrontierSetDeterminismAndBudget(t *testing.T) {
	sc := testScenario(t, 10, 40)
	build := func(par, maxTables int) *surgery.FrontierSet {
		t.Helper()
		set, err := BuildFrontierSet(sc, Options{Parallelism: par},
			surgery.BuildOptions{Surgery: surgery.Options{}, MaxTables: maxTables})
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	a, b, serial := build(4, 0), build(4, 0), build(1, 0)
	if a.Len() != b.Len() || a.Len() != serial.Len() {
		t.Fatalf("table counts diverged: %d, %d, %d", a.Len(), b.Len(), serial.Len())
	}
	if a.Probes() != b.Probes() || a.Probes() != serial.Probes() {
		t.Fatalf("probe counts diverged: %d, %d, %d", a.Probes(), b.Probes(), serial.Probes())
	}
	if a.Len() < len(sc.Users) {
		t.Fatalf("only %d tables for %d users across 2 servers", a.Len(), len(sc.Users))
	}
	capped := build(4, 3)
	if capped.Len() != 3 {
		t.Fatalf("budget of 3 kept %d tables", capped.Len())
	}
}

// TestDispatcherFrontierDrift: after an uplink observation drifts the links
// away from the tabulated keys, the dispatcher must fall back to the
// optimizer (misses, not stale hits) and still produce a valid plan.
func TestDispatcherFrontierDrift(t *testing.T) {
	sc := testScenario(t, 6, 40)
	opt := Options{}
	set, err := BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
	if err != nil {
		t.Fatal(err)
	}
	opt.Frontiers = set
	disp, err := NewDispatcher(sc, &Planner{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if disp.Current().FrontierHits == 0 {
		t.Fatal("initial dispatch used no frontier lookups")
	}
	// Halve both uplinks: every key changes, so every lookup must miss.
	plan, err := disp.ObserveUplinks([]float64{20e6 / 8 * 8, 12e6})
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, sc, plan)
	if plan.FrontierHits != 0 {
		t.Errorf("drifted links still hit the tables %d times", plan.FrontierHits)
	}
	if plan.FrontierMisses == 0 {
		t.Error("drifted links recorded no frontier misses")
	}
}

// TestFrontierAccuracyFloorAndEnergyBudget: the new Options knobs must
// tighten every user's surgery problem identically on the frontier path
// and the legacy path.
func TestFrontierAccuracyFloorAndEnergyBudget(t *testing.T) {
	sc := testScenario(t, 6, 40)
	for _, tc := range []struct {
		name string
		set  func(*Options)
	}{
		{"accuracy-floor", func(o *Options) { o.AccuracyFloor = 0.65 }},
		{"energy-budget", func(o *Options) { o.DeviceEnergyBudgetJ = 2.0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{}
			tc.set(&opt)
			legacy, err := (&Planner{Opt: opt}).Plan(sc)
			if err != nil {
				t.Fatal(err)
			}
			set, err := BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
			if err != nil {
				t.Fatal(err)
			}
			front := opt
			front.Frontiers = set
			plan, err := (&Planner{Opt: front}).Plan(sc)
			if err != nil {
				t.Fatal(err)
			}
			checkPlanInvariants(t, sc, plan)
			if opt.AccuracyFloor > 0 {
				for i, d := range plan.Decisions {
					if d.Eval.Accuracy+1e-12 < opt.AccuracyFloor {
						t.Errorf("user %d accuracy %g below floor", i, d.Eval.Accuracy)
					}
				}
			}
			// No set and an empty set both answer every problem with the
			// optimizer on the one share grid, so all three plans agree.
			cold := opt
			cold.Frontiers = surgery.NewFrontierSet(surgery.BuildOptions{Surgery: opt.Surgery})
			coldPlan, err := (&Planner{Opt: cold}).Plan(sc)
			if err != nil {
				t.Fatal(err)
			}
			samePlanModuloCounters(t, tc.name+"/empty", plan, coldPlan)
			samePlanModuloCounters(t, tc.name+"/nil", plan, legacy)
		})
	}
}

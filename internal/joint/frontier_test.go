package joint

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// samePlanModuloCounters compares everything that describes the deployment
// — decisions, objective, feasibility — while ignoring the table tally,
// which legitimately differs between the two arms.
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

// tableArm is one table set a plan must be indifferent to.
type tableArm struct {
	name string
	set  *surgery.FrontierSet
}

// tableArms returns the arms of the indifference contract: no set, an empty
// set, a set cut off after two tables, and the largest set the scenario's
// budget allows (every key the planner can probe, where the golden fixture
// sets no cap).
func tableArms(t *testing.T, gs goldenScenario) []tableArm {
	t.Helper()
	build := func(maxTables int) *surgery.FrontierSet {
		set, err := BuildFrontierSet(gs.sc, Options{}, surgery.BuildOptions{MaxTables: maxTables})
		if err != nil {
			t.Fatalf("%s: frontier build: %v", gs.name, err)
		}
		return set
	}
	full := build(gs.maxTables)
	if full.Len() == 0 {
		t.Fatalf("%s: no tables built", gs.name)
	}
	return []tableArm{
		{"nil", nil},
		{"empty", surgery.NewFrontierSet(surgery.BuildOptions{})},
		{"partial", build(2)},
		{"full", full},
	}
}

// TestFrontierPathMatchesOptimizerPath is the tables-are-a-pure-accelerator
// contract: on every golden scenario, every planning route — monolithic,
// sharded, delta replan, the dispatcher's Observe under drift and under
// failover — decides bit for bit the same whether the planner is handed no
// table set, an empty one, a partial one or a full one, and schedules the
// same number of lookups. Only the split moves: a set keeps the cells the
// routes before filled, and a second identical plan on the full set the
// first one filled runs no optimizer at all.
func TestFrontierPathMatchesOptimizerPath(t *testing.T) {
	type outcome struct {
		dec          string
		hits, misses int64
	}
	for _, gs := range goldenScenarios(t) {
		arms := tableArms(t, gs)
		one, oneMask, _, _ := goldenDrift(gs.sc)
		rates := make([]float64, len(gs.sc.Servers))
		up := make([]bool, len(gs.sc.Servers))
		for s := range rates {
			rates[s] = gs.sc.PlanningRate(s) * (0.35 + 0.4*float64(s%3))
			up[s] = s != 0
		}
		thresh := 1
		if gs.large {
			thresh = 64
		}
		var ref map[string]outcome
		for _, arm := range arms {
			opt := Options{Frontiers: arm.set}
			got := make(map[string]outcome)
			record := func(route string, p *Plan, err error, report *HealthReport) {
				var g goldenHash
				g.outcome(p, err)
				if report != nil {
					g.report(*report)
				}
				o := outcome{dec: g.dec.sum()}
				if p != nil {
					o.hits, o.misses = p.FrontierHits, p.FrontierMisses
				}
				got[route] = o
			}
			if !gs.large {
				p, err := (&Planner{Opt: opt}).Plan(gs.sc)
				record("mono", p, err, nil)
			}
			opt.ShardThreshold = thresh
			sharded := &Planner{Opt: opt}
			prev, err := sharded.Plan(gs.sc)
			record("sharded", prev, err, nil)
			if err != nil {
				t.Fatalf("%s %s: sharded plan: %v", gs.name, arm.name, err)
			}
			p, err := sharded.PlanDelta(one, prev, oneMask)
			record("delta", p, err, nil)
			d, err := NewDispatcherWithPlan(gs.sc, sharded, prev)
			if err != nil {
				t.Fatal(err)
			}
			p, err = d.Observe(nil, rates)
			report := d.Health()
			record("observe/drift", p, err, &report)
			p, err = d.Observe(up, rates)
			report = d.Health()
			record("observe/failover", p, err, &report)
			p, err = sharded.Plan(gs.sc)
			record("sharded/again", p, err, nil)

			if ref == nil {
				ref = got
				continue
			}
			for route, want := range ref {
				label := fmt.Sprintf("%s %s %s", gs.name, route, arm.name)
				o := got[route]
				if o.dec != want.dec {
					t.Errorf("%s: decisions %s, without tables %s", label, o.dec, want.dec)
				}
				if o.hits+o.misses != want.hits+want.misses {
					t.Errorf("%s: %d+%d lookups, without tables %d+%d", label, o.hits, o.misses, want.hits, want.misses)
				}
				if o.misses > want.misses {
					t.Errorf("%s: %d optimizer runs, more than the %d without tables", label, o.misses, want.misses)
				}
				if arm.name == "empty" && o != want {
					t.Errorf("%s: tally %d/%d, without tables %d/%d", label, o.hits, o.misses, want.hits, want.misses)
				}
				if arm.name == "full" && route == "sharded/again" && gs.maxTables == 0 && o.misses != 0 {
					t.Errorf("%s: %d optimizer runs on the set the first plan filled", label, o.misses)
				}
			}
		}
	}
}

// TestFrontierCountersAndMetrics pins the telemetry contract: the
// planner.frontier.* series mirror the plan's tally, and attaching a registry
// changes neither — an instrumented planner reports exactly the hits and
// misses an uninstrumented one does, on the monolithic, sharded and delta
// routes (whose sub-plans' tallies are published once, not twice), with and
// without a table set. Each planner gets a fresh set of its own: a shared one
// would hand the second planner the cells the first one filled.
func TestFrontierCountersAndMetrics(t *testing.T) {
	sc := testScenario(t, 12, 40)
	one := driftLink(sc, 0, 0.5)
	for _, withSet := range []bool{false, true} {
		fresh := func() *surgery.FrontierSet {
			if !withSet {
				return nil
			}
			set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return set
		}
		for _, thresh := range []int{0, 1} {
			label := fmt.Sprintf("tables=%t thresh=%d", withSet, thresh)
			bare := &Planner{Opt: Options{ShardThreshold: thresh, Frontiers: fresh()}}
			reg := telemetry.NewRegistry()
			inst := &Planner{Opt: Options{ShardThreshold: thresh, Frontiers: fresh(), Metrics: reg}}
			published := func() (hits, misses int64) {
				return reg.Counter("planner.frontier.hits").Value(), reg.Counter("planner.frontier.misses").Value()
			}

			want, err := bare.Plan(sc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := inst.Plan(sc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want.FrontierHits+want.FrontierMisses == 0 {
				t.Fatalf("%s: planned without a single lookup", label)
			}
			if got.FrontierHits != want.FrontierHits || got.FrontierMisses != want.FrontierMisses {
				t.Errorf("%s: instrumented plan tallied %d/%d, uninstrumented %d/%d", label,
					got.FrontierHits, got.FrontierMisses, want.FrontierHits, want.FrontierMisses)
			}
			if h, m := published(); h != got.FrontierHits || m != got.FrontierMisses {
				t.Errorf("%s: registry %d/%d != plan %d/%d", label, h, m, got.FrontierHits, got.FrontierMisses)
			}

			dirty := []bool{true, false}
			wantDelta, err := bare.PlanDelta(one, want, dirty)
			if err != nil {
				t.Fatalf("%s: delta: %v", label, err)
			}
			gotDelta, err := inst.PlanDelta(one, got, dirty)
			if err != nil {
				t.Fatalf("%s: delta: %v", label, err)
			}
			if gotDelta.FrontierHits != wantDelta.FrontierHits || gotDelta.FrontierMisses != wantDelta.FrontierMisses {
				t.Errorf("%s: instrumented delta tallied %d/%d, uninstrumented %d/%d", label,
					gotDelta.FrontierHits, gotDelta.FrontierMisses, wantDelta.FrontierHits, wantDelta.FrontierMisses)
			}
			if h, m := published(); h != got.FrontierHits+gotDelta.FrontierHits || m != got.FrontierMisses+gotDelta.FrontierMisses {
				t.Errorf("%s: registry %d/%d is not the sum of the two plans' tallies", label, h, m)
			}
		}
	}
}

// TestInfeasibleCellSurfacesUserError: an optimizer error on an unknown
// cell reaches the caller as the planner's user-named surgery error, whatever
// tables were supplied (an infeasible cell stays unknown in every table, so
// a full set hands the error back too).
func TestInfeasibleCellSurfacesUserError(t *testing.T) {
	sc := testScenario(t, 6, 40)
	for i := range sc.Users {
		sc.Users[i].MinAccuracy = 0.999
	}
	var opt Options
	set, err := BuildFrontierSet(sc, opt, surgery.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, frontiers := range []*surgery.FrontierSet{nil, set} {
		opt.Frontiers = frontiers
		_, err := (&Planner{Opt: opt}).Plan(sc)
		if err == nil || !strings.HasPrefix(err.Error(), "joint: surgery for user 0 (ua): ") {
			t.Fatalf("tables=%t: error %v, want the user-named surgery error", frontiers != nil, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("error text depends on the tables: %q vs %q", err.Error(), want)
		}
	}
}

// atProcs runs f with GOMAXPROCS set to procs and restores the previous
// setting: no plan field may depend on the core count.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestBuildFrontierSetDeterminismAndBudget pins registration: a set holds an
// empty table for every key the planner can probe, the same keys build after
// build, and a table budget keeps the most popular keys instead of erroring.
func TestBuildFrontierSetDeterminismAndBudget(t *testing.T) {
	sc := testScenario(t, 10, 40)
	build := func(maxTables int) *surgery.FrontierSet {
		t.Helper()
		set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{MaxTables: maxTables})
		if err != nil {
			t.Fatal(err)
		}
		if set.Probes() != 0 {
			t.Fatalf("registration ran %d optimizer calls", set.Probes())
		}
		return set
	}
	keys, count := frontierKeys(sc, Options{}, nil, true)
	for _, set := range []*surgery.FrontierSet{build(0), build(0)} {
		if set.Len() != len(keys) {
			t.Fatalf("%d tables for %d keys", set.Len(), len(keys))
		}
		for ki, k := range keys {
			if set.Get(k) == nil {
				t.Fatalf("key %d not registered", ki)
			}
		}
	}
	if len(keys) < len(sc.Users) {
		t.Fatalf("only %d keys for %d users across 2 servers", len(keys), len(sc.Users))
	}
	capped := build(3)
	if capped.Len() != 3 {
		t.Fatalf("budget of 3 kept %d tables", capped.Len())
	}
	sort.SliceStable(keys, func(a, b int) bool { return count[keys[a]] > count[keys[b]] })
	for ki, k := range keys[:3] {
		if capped.Get(k) == nil {
			t.Fatalf("budget of 3 dropped the key ranked %d", ki)
		}
	}
}

// TestDispatcherFrontierDrift: a second dispatcher on the set the first one's
// initial plan filled plans without a single optimizer call; after an uplink
// observation drifts the links away from the registered keys, it must answer
// the new keys with the optimizer (misses, not stale hits) on tables of its
// own — the long-lived set and its budget never see a drifted key — and
// decide exactly what a dispatcher without tables decides.
func TestDispatcherFrontierDrift(t *testing.T) {
	sc := testScenario(t, 6, 40)
	opt := Options{}
	set, err := BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewDispatcher(sc, &Planner{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	opt.Frontiers = set
	if _, err := NewDispatcher(sc, &Planner{Opt: opt}); err != nil {
		t.Fatal(err)
	}
	disp, err := NewDispatcher(sc, &Planner{Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if cur := disp.Current(); cur.FrontierHits == 0 || cur.FrontierMisses != 0 {
		t.Fatalf("second initial dispatch tallied %d/%d on the set the first one filled", cur.FrontierHits, cur.FrontierMisses)
	}
	tables, probes := set.Len(), set.Probes()
	// Halve both uplinks: every key changes, so no registered table applies.
	rates := []float64{20e6 / 8 * 8, 12e6}
	plan, err := disp.Observe(nil, rates)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, sc, plan)
	want, err := bare.Observe(nil, rates)
	if err != nil {
		t.Fatal(err)
	}
	samePlanModuloCounters(t, "drift", plan, want)
	if plan.FrontierHits != want.FrontierHits || plan.FrontierMisses != want.FrontierMisses || plan.FrontierMisses == 0 {
		t.Errorf("drifted links tallied %d/%d, a dispatcher without tables %d/%d",
			plan.FrontierHits, plan.FrontierMisses, want.FrontierHits, want.FrontierMisses)
	}
	if set.Len() != tables || set.Probes() != probes {
		t.Errorf("drifted keys leaked into the shared set: %d tables/%d probes, was %d/%d",
			set.Len(), set.Probes(), tables, probes)
	}
}

// TestFrontierAccuracyFloorAndEnergyBudget: a per-user accuracy floor must
// tighten every user's surgery problem identically with a registered table
// set, with an empty set and with none. (The device energy budget it once
// covered too is gone from the planner.)
func TestFrontierAccuracyFloorAndEnergyBudget(t *testing.T) {
	t.Run("accuracy-floor", func(t *testing.T) {
		sc := testScenario(t, 6, 40)
		for i := range sc.Users {
			sc.Users[i].MinAccuracy = 0.65
		}
		bare, err := (&Planner{}).Plan(sc)
		if err != nil {
			t.Fatal(err)
		}
		set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (&Planner{Opt: Options{Frontiers: set}}).Plan(sc)
		if err != nil {
			t.Fatal(err)
		}
		checkPlanInvariants(t, sc, plan)
		for i, d := range plan.Decisions {
			if d.Eval.Accuracy+1e-12 < 0.65 {
				t.Errorf("user %d accuracy %g below floor", i, d.Eval.Accuracy)
			}
		}
		// No set and an empty set both answer every problem with the optimizer
		// on the one share grid, so all three plans agree.
		cold := Options{Frontiers: surgery.NewFrontierSet(surgery.BuildOptions{})}
		coldPlan, err := (&Planner{Opt: cold}).Plan(sc)
		if err != nil {
			t.Fatal(err)
		}
		samePlanModuloCounters(t, "empty", plan, coldPlan)
		samePlanModuloCounters(t, "nil", plan, bare)
	})
}

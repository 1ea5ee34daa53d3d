package joint

import (
	"errors"
	"fmt"
	"testing"

	"edgesurgeon/internal/surgery"
)

// budgetTableArms returns the table sets a budget must be indifferent to:
// none, and sets registered at GOMAXPROCS 1 and 4, each filled by the plans
// that share it.
func budgetTableArms(t *testing.T, sc *Scenario) []tableArm {
	t.Helper()
	arms := []tableArm{{"none", nil}}
	for _, procs := range []int{1, 4} {
		atProcs(procs, func() {
			set, err := BuildFrontierSet(sc, Options{}, surgery.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			arms = append(arms, tableArm{fmt.Sprintf("procs=%d", procs), set})
		})
	}
	return arms
}

// TestSurgeryBudgetDeterministicAcrossParallelism pins the property the
// control plane's replan deadline depends on: the scheduled-surgery-op
// ledger a plan is charged is the same without tables and on sets however
// filled, on both planner routes, so a budget either aborts every
// run of a given (scenario, options) pair or none of them.
func TestSurgeryBudgetDeterministicAcrossParallelism(t *testing.T) {
	sc := testScenario(t, 12, 40)
	arms := budgetTableArms(t, sc)
	for _, thresh := range []int{0, 6} {
		base := Options{ShardThreshold: thresh}
		ref, err := (&Planner{Opt: base}).Plan(sc)
		if err != nil {
			t.Fatalf("thresh=%d: unbudgeted plan: %v", thresh, err)
		}
		if ref.SurgeryOps <= 0 {
			t.Fatalf("thresh=%d: plan charged %d surgery ops, want > 0", thresh, ref.SurgeryOps)
		}
		for _, arm := range arms {
			label := fmt.Sprintf("thresh=%d tables=%s", thresh, arm.name)
			opt := base
			opt.Frontiers = arm.set

			// The ops ledger itself must not depend on the tables.
			p, err := (&Planner{Opt: opt}).Plan(sc)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if p.SurgeryOps != ref.SurgeryOps {
				t.Fatalf("%s: charged %d ops, without tables %d", label, p.SurgeryOps, ref.SurgeryOps)
			}

			// A budget covering the full run changes nothing.
			opt.SurgeryBudget = ref.SurgeryOps
			full, err := (&Planner{Opt: opt}).Plan(sc)
			if err != nil {
				t.Fatalf("%s: budget=%d: %v", label, ref.SurgeryOps, err)
			}
			samePlanModuloCounters(t, label, full, ref)

			// An insufficient budget aborts, with a typed error naming the
			// budget; no partial plan escapes. The monolithic path aborts
			// below its total; the sharded path sheds its opportunistic
			// cross-check first, so starve it below its pinning cost.
			if thresh == 0 {
				opt.SurgeryBudget = ref.SurgeryOps / 2
			} else {
				opt.SurgeryBudget = int64(len(sc.Users)) / 2
			}
			if opt.SurgeryBudget < 1 {
				opt.SurgeryBudget = 1
			}
			partial, err := (&Planner{Opt: opt}).Plan(sc)
			if partial != nil {
				t.Fatalf("%s: aborted plan returned a partial plan", label)
			}
			var abort *AbortedError
			if !errors.As(err, &abort) {
				t.Fatalf("%s: budget=%d: got %v, want *AbortedError", label, opt.SurgeryBudget, err)
			}
			if abort.Budget != opt.SurgeryBudget {
				t.Errorf("%s: abort reports budget %d, want %d", label, abort.Budget, opt.SurgeryBudget)
			}
			if abort.SurgeryOps <= abort.Budget {
				t.Errorf("%s: abort at %d ops does not exceed budget %d", label, abort.SurgeryOps, abort.Budget)
			}
		}
	}
}

// TestSurgeryBudgetAbortPointStable: the op count an aborting run reports is
// itself deterministic — the checkpoint ledger counts scheduled work, so
// tables that answer lookups without the optimizer never move where the
// budget ran out.
func TestSurgeryBudgetAbortPointStable(t *testing.T) {
	sc := testScenario(t, 12, 40)
	ref, err := (&Planner{}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	budget := ref.SurgeryOps * 2 / 3
	if budget < 1 {
		budget = 1
	}
	var want int64
	for i, arm := range budgetTableArms(t, sc) {
		opt := Options{SurgeryBudget: budget, Frontiers: arm.set}
		_, err := (&Planner{Opt: opt}).Plan(sc)
		var abort *AbortedError
		if !errors.As(err, &abort) {
			t.Fatalf("tables=%s: got %v, want *AbortedError", arm.name, err)
		}
		if i == 0 {
			want = abort.SurgeryOps
			continue
		}
		if abort.SurgeryOps != want {
			t.Errorf("tables=%s: aborted at %d ops, without tables at %d", arm.name, abort.SurgeryOps, want)
		}
	}
}

// TestSurgeryBudgetShardedPath: the sharded route splits the budget across
// shards; a generous budget reproduces the unbudgeted plan, a starved one
// aborts with the typed error.
func TestSurgeryBudgetShardedPath(t *testing.T) {
	sc := testScenario(t, 16, 40)
	base := Options{ShardThreshold: 4}
	ref, err := (&Planner{Opt: base}).Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Shards == 0 {
		t.Fatal("scenario did not take the sharded route")
	}

	opt := base
	opt.SurgeryBudget = ref.SurgeryOps
	full, err := (&Planner{Opt: opt}).Plan(sc)
	if err != nil {
		t.Fatalf("budget=%d: %v", opt.SurgeryBudget, err)
	}
	samePlanModuloCounters(t, "sharded full budget", full, ref)

	opt.SurgeryBudget = int64(len(sc.Users)) + 1 // enough to pin, not to plan
	_, err = (&Planner{Opt: opt}).Plan(sc)
	var abort *AbortedError
	if !errors.As(err, &abort) {
		t.Fatalf("starved budget: got %v, want *AbortedError", err)
	}
}

// TestObserveIgnoresBudget: the dispatcher's cheap observe rounds must not
// inherit the full-replan budget — a failover refresh under a tiny budget
// still succeeds.
func TestObserveIgnoresBudget(t *testing.T) {
	sc := testScenario(t, 6, 40)
	d, err := NewDispatcher(sc, &Planner{Opt: Options{SurgeryBudget: 1}})
	if err == nil {
		t.Fatal("construction-time Plan ignored a 1-op budget")
	}
	d, err = NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a budgeted planner post-construction, as the runtime's replan
	// path does, then observe: the refresh must not abort.
	d.planner = &Planner{Opt: Options{SurgeryBudget: 1}}
	if _, err := d.Observe([]bool{false, true}, nil); err != nil {
		t.Fatalf("observe under budget: %v", err)
	}
}

// TestNewDispatcherWithPlan: the recovery constructor installs the given
// plan as both current and pristine base, and rejects shape mismatches.
func TestNewDispatcherWithPlan(t *testing.T) {
	sc := testScenario(t, 6, 40)
	planner := &Planner{}
	plan, err := planner.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDispatcherWithPlan(sc, planner, plan)
	if err != nil {
		t.Fatal(err)
	}
	if d.Current().Objective != plan.Objective {
		t.Fatalf("current objective %g, want %g", d.Current().Objective, plan.Objective)
	}
	// The installed plan is a copy: mutating the input must not leak in.
	plan.Decisions[0].Server = -99
	if d.Current().Decisions[0].Server == -99 {
		t.Fatal("dispatcher aliases the caller's plan")
	}
	// Failover then full recovery restores the pristine base.
	if _, err := d.Observe([]bool{false, true}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Observe([]bool{true, true}, nil); err != nil {
		t.Fatal(err)
	}
	if !d.Health().Restored {
		t.Fatal("recovery did not restore the base plan")
	}

	if _, err := NewDispatcherWithPlan(sc, planner, &Plan{}); err == nil {
		t.Fatal("accepted a plan with no decisions")
	}
	if _, err := NewDispatcherWithPlan(sc, planner, nil); err == nil {
		t.Fatal("accepted a nil plan")
	}
}

package joint

import (
	"testing"

	"edgesurgeon/internal/telemetry"
)

// The telemetry registry is a pure observation channel: attaching it must
// not change planner output, and its series must agree with the legacy
// accessors (Plan's table tally, the dispatcher's HealthReport).

func TestPlannerMetricsMatchPlanCounters(t *testing.T) {
	sc := testScenario(t, 6, 40)
	reg := telemetry.NewRegistry()
	instrumented := &Planner{Opt: Options{Metrics: reg}}
	plan, err := instrumented.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := (&Planner{}).Plan(testScenario(t, 6, 40))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective != bare.Objective || plan.Iterations != bare.Iterations {
		t.Fatalf("instrumentation changed the plan: objective %g vs %g", plan.Objective, bare.Objective)
	}
	hits := reg.Counter("planner.frontier.hits").Value()
	misses := reg.Counter("planner.frontier.misses").Value()
	if hits != plan.FrontierHits || misses != plan.FrontierMisses {
		t.Fatalf("registry table tally %d/%d, plan reports %d/%d",
			hits, misses, plan.FrontierHits, plan.FrontierMisses)
	}
	if hits+misses == 0 {
		t.Fatal("no surgery optimizations counted")
	}
	if got := reg.Counter("planner.plans").Value(); got != 1 {
		t.Fatalf("planner.plans = %d, want 1", got)
	}
	if got := reg.Counter("planner.iterations").Value(); got != int64(plan.Iterations) {
		t.Fatalf("planner.iterations = %d, want %d", got, plan.Iterations)
	}

	// A second Plan call accumulates in the registry while the per-call
	// Plan fields stay per-call deltas.
	plan2, err := instrumented.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	total := reg.Counter("planner.frontier.hits").Value() + reg.Counter("planner.frontier.misses").Value()
	if total != hits+misses+plan2.FrontierHits+plan2.FrontierMisses {
		t.Fatalf("registry total %d is not the sum of per-call counts", total)
	}
	if got := reg.Counter("planner.plans").Value(); got != 2 {
		t.Fatalf("planner.plans after second call = %d, want 2", got)
	}
}

func TestDispatcherInstrumentMatchesHealthReport(t *testing.T) {
	sc := testScenario(t, 6, 40)
	disp, err := NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	disp.Instrument(reg)

	if _, err := disp.ObserveHealth([]bool{false, true}); err != nil {
		t.Fatal(err)
	}
	rep := disp.Health()
	if got := reg.Counter("dispatcher.evacuated").Value(); got != int64(rep.Evacuated) {
		t.Fatalf("evacuated counter %d vs report %d", got, rep.Evacuated)
	}
	if got := reg.Counter("dispatcher.shed").Value(); got != int64(rep.Shed) {
		t.Fatalf("shed counter %d vs report %d", got, rep.Shed)
	}
	if got := reg.Counter("dispatcher.degraded").Value(); got != int64(len(rep.Degraded)) {
		t.Fatalf("degraded counter %d vs report %d", got, len(rep.Degraded))
	}
	if got := reg.Counter("dispatcher.observations").Value(); got != 1 {
		t.Fatalf("observations = %d, want 1", got)
	}

	if _, err := disp.ObserveHealth([]bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if !disp.Health().Restored {
		t.Fatal("recovery did not restore")
	}
	if got := reg.Counter("dispatcher.restores").Value(); got != 1 {
		t.Fatalf("restores = %d, want 1", got)
	}
	if got := reg.Gauge("dispatcher.objective").Value(); got != disp.Current().Objective {
		t.Fatalf("objective gauge %g vs plan %g", got, disp.Current().Objective)
	}
	if got := reg.Counter("dispatcher.observations").Value(); got != 2 {
		t.Fatalf("observations = %d, want 2", got)
	}
}

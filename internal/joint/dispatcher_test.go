package joint

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/workload"
)

// TestObserveUplinksRejectsNonFinite: a NaN or infinite observed uplink rate
// is refused with a *BadObservationError and leaves the plan in place.
func TestObserveUplinksRejectsNonFinite(t *testing.T) {
	sc := testScenario(t, 4, 40)
	disp, err := NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	before := disp.Current()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := disp.Observe(nil, []float64{bad, 1e6})
		if err == nil {
			t.Fatalf("rate %g accepted", bad)
		}
		var obsErr *BadObservationError
		if !errors.As(err, &obsErr) {
			t.Fatalf("rate %g: error %T is not *BadObservationError", bad, err)
		}
		if obsErr.Server != 0 || !(math.IsNaN(obsErr.Rate) || math.IsInf(obsErr.Rate, 0)) {
			t.Fatalf("rate %g: wrong error payload %+v", bad, obsErr)
		}
		if disp.Current() != before {
			t.Fatalf("rate %g: rejected observation replaced the plan", bad)
		}
	}
	// Non-positive finite rates are the keep-as-is sentinel, not an error.
	if _, err := disp.Observe(nil, []float64{0, -5}); err != nil {
		t.Fatalf("sentinel rates rejected: %v", err)
	}
}

// executable verifies that, under the health vector `up`, every user holds
// a plan it can actually run: assigned to a healthy server with positive
// shares, or fully local — except users the report explicitly lists as
// degraded (no server reachable and the model does not fit on-device).
func executable(t *testing.T, sc *Scenario, p *Plan, rep HealthReport, up []bool) {
	t.Helper()
	degraded := make(map[int]bool)
	for _, ui := range rep.Degraded {
		degraded[ui] = true
	}
	for ui, d := range p.Decisions {
		if degraded[ui] {
			continue
		}
		if d.Server >= 0 {
			if !up[d.Server] {
				t.Errorf("user %d assigned to down server %d", ui, d.Server)
			}
			if d.ComputeShare <= 0 || d.BandwidthShare <= 0 {
				t.Errorf("user %d zero shares on server %d", ui, d.Server)
			}
		} else if d.Plan.Partition != sc.Users[ui].Model.NumUnits() {
			t.Errorf("user %d is local but plan offloads at unit %d", ui, d.Plan.Partition)
		}
		if err := d.Plan.Validate(); err != nil {
			t.Errorf("user %d plan invalid: %v", ui, err)
		}
		if l := d.Latency(); l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			t.Errorf("user %d degenerate latency %g", ui, l)
		}
	}
}

func TestDispatcherFailoverAndRecovery(t *testing.T) {
	sc := testScenario(t, 6, 40)
	disp, err := NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	base := clonePlan(disp.Current())

	// Kill server 0: everyone must land on server 1 or locally.
	p, err := disp.Observe([]bool{false, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	executable(t, sc, p, disp.Health(), []bool{false, true})
	if disp.Health().Evacuated == 0 {
		t.Error("killing server 0 evacuated nobody")
	}
	for ui, d := range p.Decisions {
		if d.Server == 0 {
			t.Errorf("user %d still on dead server 0", ui)
		}
	}
	if want := disp.planner.Name() + "+failover"; p.PlannerName != want {
		t.Errorf("planner name %q, want %q", p.PlannerName, want)
	}

	// Kill both: only local fallback (or recorded degradation) remains.
	p, err = disp.Observe([]bool{false, false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := disp.Health()
	executable(t, sc, p, rep, []bool{false, false})
	local := 0
	for _, d := range p.Decisions {
		if d.Server < 0 {
			local++
		}
	}
	if local != rep.LocalFallback || local+len(rep.Degraded) != len(sc.Users) {
		t.Errorf("blackout accounting: local=%d fallback=%d degraded=%d users=%d",
			local, rep.LocalFallback, len(rep.Degraded), len(sc.Users))
	}

	// Full recovery restores the pristine plan exactly.
	p, err = disp.Observe([]bool{true, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !disp.Health().Restored {
		t.Error("recovery not reported as restored")
	}
	if !reflect.DeepEqual(p.Decisions, base.Decisions) || p.Objective != base.Objective {
		t.Error("recovery did not restore the pristine plan")
	}

	// Health-vector length mismatch is an error.
	if _, err := disp.Observe([]bool{true}, nil); err == nil {
		t.Error("wrong health-vector length accepted")
	}
}

// TestDispatcherChurn drives the dispatcher through a kill/revive sequence
// and checks that after every observation each user holds an executable
// plan, and that the whole trajectory is deterministic.
func TestDispatcherChurn(t *testing.T) {
	steps := []struct {
		name string
		up   []bool
	}{
		{"kill gpu", []bool{false, true}},
		{"kill both", []bool{false, false}},
		{"revive cpu only", []bool{false, true}},
		{"revive all", []bool{true, true}},
		{"kill cpu", []bool{true, false}},
		{"flap gpu too", []bool{false, false}},
		{"full recovery", []bool{true, true}},
	}
	run := func() []*Plan {
		sc := testScenario(t, 8, 30)
		disp, err := NewDispatcher(sc, &Planner{})
		if err != nil {
			t.Fatal(err)
		}
		var plans []*Plan
		for _, step := range steps {
			p, err := disp.Observe(step.up, nil)
			if err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			executable(t, sc, p, disp.Health(), step.up)
			rep := disp.Health()
			for ui, d := range p.Decisions {
				if d.Server >= 0 && !step.up[d.Server] {
					found := false
					for _, dg := range rep.Degraded {
						found = found || dg == ui
					}
					if !found {
						t.Errorf("%s: user %d on down server %d without degradation record", step.name, ui, d.Server)
					}
				}
			}
			plans = append(plans, clonePlan(p))
		}
		return plans
	}
	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i].Decisions, b[i].Decisions) {
			t.Errorf("step %d (%s): churn trajectory is not deterministic", i, steps[i].name)
		}
	}
}

// TestDispatcherShedsUnderOverload crams deadline-tight users onto the one
// surviving server and expects admission control to shed the excess to
// local execution rather than leave the allocation infeasible.
func TestDispatcherShedsUnderOverload(t *testing.T) {
	sc := testScenario(t, 10, 12)
	for i := range sc.Users {
		sc.Users[i].Model = dnn.VGG16()
		sc.Users[i].Deadline = 0.35
		sc.Users[i].Rate = 3
		sc.Users[i].Weight = 1 + float64(i%3) // distinct weights to pick among
		sc.Users[i].Difficulty = workload.UniformDifficulty
	}
	disp, err := NewDispatcher(sc, &Planner{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := disp.Observe([]bool{false, true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := disp.Health()
	executable(t, sc, p, rep, []bool{false, true})
	if rep.Shed == 0 {
		t.Fatalf("overloaded survivor shed nobody (feasible=%v)", p.Feasible)
	}
	// Shed users run locally.
	shedLocal := 0
	for _, d := range p.Decisions {
		if d.Server < 0 {
			shedLocal++
		}
	}
	if shedLocal < rep.Shed {
		t.Errorf("%d users shed but only %d local", rep.Shed, shedLocal)
	}
}

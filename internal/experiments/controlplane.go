package experiments

import (
	"fmt"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/stats"
	"edgesurgeon/internal/telemetry"
)

// e22ControlPlanePolicies replays one drifting-bandwidth + fault telemetry
// trace through the serve.Runtime under three replanning policies —
// replan-always, hysteresis, and never-replan — and simulates each sample
// window's arrivals under the plan each policy was actually serving at that
// moment. The claim under test: hysteresis holds deadline satisfaction
// within one point of replan-always while running at least five times fewer
// full (block-coordinate) replans; never-replan shows what that planning
// work buys.
func e22ControlPlanePolicies(r *Report) error {
	const (
		horizon = 240.0
		period  = 5.0
	)
	// An E20-style crash and outage on top of the drifting uplinks.
	sched := faults.MustNew(
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 60, End: 100},
		faults.Window{Kind: faults.LinkOutage, Server: 1, Start: 120, End: 160},
	)
	build, trace, err := fadingStudy(41, sched, horizon, period)
	if err != nil {
		return err
	}

	type armResult struct {
		name                    string
		fulls, cheaps, deferred int64
		met, fail, faultMet     stats.Meter
	}
	arms := []struct {
		name   string
		policy serve.Policy
	}{
		{"replan-always", serve.AlwaysReplan()},
		{"hysteresis", serve.Hysteresis()},
		{"never-replan", serve.NeverReplan()},
	}
	results := make([]armResult, len(arms))
	err = forEachArm(len(arms), func(ai int) error {
		sc := build()
		rt, err := serve.New(serve.Config{Scenario: sc, Policy: arms[ai].policy})
		if err != nil {
			return err
		}
		// Each sample window's arrivals run under whatever plan the policy
		// is serving right then, with the fault trace live.
		total, windows, err := replay(sc, horizon, period, sched, func(i int, _ float64) (*joint.Plan, error) {
			return rt.Ingest(trace[i])
		})
		if err != nil {
			return fmt.Errorf("%s: %w", arms[ai].name, err)
		}
		res := armResult{name: arms[ai].name, met: total.met, fail: total.fail}
		for i, w := range windows {
			if up := sched.Health(len(sc.Servers), trace[i].Time); !up[0] || !up[1] {
				res.faultMet.Merge(w.met)
			}
		}
		reg := rt.Metrics()
		res.fulls = reg.Counter("serve.replans.full").Value()
		res.cheaps = reg.Counter("serve.replans.cheap").Value()
		res.deferred = reg.Counter("serve.replans.deferred").Value()
		results[ai] = res
		return nil
	})
	if err != nil {
		return err
	}

	t := r.table("Policy comparison over one 240 s trace (48 samples)",
		"policy", "full-replans", "cheap-refreshes", "deferred", "deadline-rate", "failure-rate", "fault-window-deadline-rate")
	for _, res := range results {
		t.AddRow(res.name, float64(res.fulls), float64(res.cheaps), float64(res.deferred),
			res.met.Rate(), res.fail.Rate(), res.faultMet.Rate())
	}

	always, hyst, never := &results[0], &results[1], &results[2]
	r.note("deadline satisfaction: hysteresis %.3f vs replan-always %.3f (delta %.3f) vs never-replan %.3f",
		hyst.met.Rate(), always.met.Rate(), always.met.Rate()-hyst.met.Rate(), never.met.Rate())
	r.note("full replans: hysteresis %d vs replan-always %d (%.1fx fewer)",
		hyst.fulls, always.fulls, float64(always.fulls)/float64(max(hyst.fulls, 1)))
	if hyst.met.Rate() < always.met.Rate()-0.01 {
		r.note("WARNING: hysteresis lost more than one point of deadline satisfaction vs replan-always")
	}
	if always.fulls < 5*hyst.fulls {
		r.note("WARNING: hysteresis did not cut full replans by at least 5x")
	}
	if never.faultMet.Rate() > hyst.faultMet.Rate() {
		r.note("WARNING: never-replan beat hysteresis inside fault windows — the control plane is not earning its keep")
	}
	return nil
}

// fadingStudy is the cluster the control-plane studies replay (E22, E25):
// E20's eight users in front of two servers whose uplinks wander across a
// 3x range (fading seeded seed and seed+1), so the trace genuinely drifts.
// It returns a builder of fresh scenarios, one per arm, all sharing the two
// read-only links, and the telemetry trace recorded once from them under
// sched: every arm replays the same samples.
func fadingStudy(seed int64, sched *faults.Schedule, horizon, period float64) (func() *joint.Scenario, []telemetry.Sample, error) {
	links := make([]netmodel.Link, 2)
	for i, c := range []struct {
		name       string
		mbps       []float64
		dwell, rtt float64
	}{
		{"wifi-a", []float64{16, 28, 45}, 16, 0.004},
		{"wifi-b", []float64{10, 18, 30}, 18, 0.006},
	} {
		states := make([]float64, len(c.mbps))
		for j, v := range c.mbps {
			states[j] = netmodel.Mbps(v)
		}
		var err error
		links[i], err = netmodel.NewFading(c.name, netmodel.FadingConfig{
			States: states, MeanDwell: c.dwell, Horizon: horizon * 2, RTT: c.rtt, Seed: seed + int64(i),
		})
		if err != nil {
			return nil, nil, err
		}
	}
	build := func() *joint.Scenario {
		sc := mixedScenario(8, 1.2, 0.35, 40)
		sc.Servers[0].Link, sc.Servers[1].Link = links[0], links[1]
		return sc
	}
	trace, err := sim.RecordTrace(links, sched, horizon, period)
	return build, trace, err
}

package experiments

import (
	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/stats"
)

// e20AvailabilityUnderFailures measures serving availability across a
// scripted fault trace: a server crash, an uplink outage, and a capacity
// brown-out, each spanning whole replanning epochs. Three arms run the
// identical workload under the identical faults: a static plan, the
// drift-only dispatcher (epoch replanning that observes link rates but not
// health), and the failure-aware dispatcher (Observe's evacuation,
// local fallback, and admission control). Failed tasks count as deadline
// misses; latency percentiles are over completed tasks.
func e20AvailabilityUnderFailures(r *Report) error {
	const (
		horizon = 240.0
		epoch   = 20.0
	)
	sched := faults.MustNew(
		faults.Window{Kind: faults.ServerCrash, Server: 0, Start: 60, End: 100},
		faults.Window{Kind: faults.LinkOutage, Server: 1, Start: 120, End: 160},
		faults.Window{Kind: faults.Brownout, Server: 0, Start: 180, End: 220, Factor: 0.4},
	)
	build := func() *joint.Scenario { return mixedScenario(8, 1.2, 0.35, 40) }

	// Static arm: one plan, one whole-horizon run under the fault trace.
	scStatic := build()
	staticPlan, err := (&joint.Planner{}).Plan(scStatic)
	if err != nil {
		return err
	}
	staticCfg := joint.BuildSimConfig(scStatic, staticPlan, horizon, sim.DedicatedShares)
	staticCfg.Faults, staticCfg.Retry = sched, sim.RetryPolicy{TaskTimeout: 2}
	staticRes, err := sim.Run(staticCfg)
	if err != nil {
		return err
	}

	// Dispatcher arms: replan at every epoch boundary, simulate that
	// epoch's arrivals under the refreshed decisions and the fault trace.
	dispatcherArm := func(observe func(d *joint.Dispatcher, start float64) (*joint.Plan, error)) (*joint.Dispatcher, window, []window, error) {
		sc := build()
		disp, err := joint.NewDispatcher(sc, &joint.Planner{})
		if err != nil {
			return nil, window{}, nil, err
		}
		overall, epochs, err := replay(sc, horizon, epoch, sched, func(_ int, start float64) (*joint.Plan, error) {
			return observe(disp, start)
		})
		return disp, overall, epochs, err
	}
	_, driftOverall, driftEpochs, err := dispatcherArm(func(d *joint.Dispatcher, start float64) (*joint.Plan, error) {
		return d.ObserveWindow(start, epoch)
	})
	if err != nil {
		return err
	}
	aware, awareOverall, awareEpochs, err := dispatcherArm(func(d *joint.Dispatcher, start float64) (*joint.Plan, error) {
		return d.Observe(sched.Health(2, start), nil)
	})
	if err != nil {
		return err
	}
	// Recovery contract: after the final (all-healthy) epoch the
	// failure-aware dispatcher must hold the pristine pre-fault plan — same
	// objective, bit for bit.
	base, err := (&joint.Planner{}).Plan(build())
	if err != nil {
		return err
	}
	awareRestored := aware.Health().Restored && aware.Current().Objective == base.Objective

	epochTable := r.table("Per-epoch deadline satisfaction",
		"epoch-start(s)", "srv0-up", "srv1-up", "static", "drift-only", "failure-aware")
	var staticFault, driftFault, awareFault stats.Meter
	for ei, start := 0, 0.0; start < horizon; ei, start = ei+1, start+epoch {
		var staticEp stats.Meter
		for i := range staticRes.Records {
			rec := &staticRes.Records[i]
			if rec.Deadline > 0 && rec.Arrival >= start && rec.Arrival < start+epoch {
				staticEp.Observe(rec.Met)
			}
		}
		up := sched.Health(2, start)
		epochTable.AddRow(start, boolInt(up[0]), boolInt(up[1]),
			staticEp.Rate(), driftEpochs[ei].met.Rate(), awareEpochs[ei].met.Rate())
		if !up[0] || !up[1] {
			staticFault.Merge(staticEp)
			driftFault.Merge(driftEpochs[ei].met)
			awareFault.Merge(awareEpochs[ei].met)
		}
	}

	staticLat := staticRes.Latencies()
	t := r.table("Overall comparison",
		"arm", "mean(ms)", "p99(ms)", "deadline-rate", "failure-rate", "fault-window-deadline-rate")
	t.AddRow("static", staticLat.Mean()*1000, staticLat.P99()*1000,
		staticRes.DeadlineRate(), staticRes.FailureRate(), staticFault.Rate())
	t.AddRow("drift-only", driftOverall.lat.Mean()*1000, driftOverall.lat.P99()*1000,
		driftOverall.met.Rate(), driftOverall.fail.Rate(), driftFault.Rate())
	t.AddRow("failure-aware", awareOverall.lat.Mean()*1000, awareOverall.lat.P99()*1000,
		awareOverall.met.Rate(), awareOverall.fail.Rate(), awareFault.Rate())

	r.note("fault-window deadline rate: failure-aware %.3f vs drift-only %.3f vs static %.3f",
		awareFault.Rate(), driftFault.Rate(), staticFault.Rate())
	r.note("overall failure rate: failure-aware %.3f vs static %.3f",
		awareOverall.fail.Rate(), staticRes.FailureRate())
	if awareFault.Rate() <= staticFault.Rate() || awareFault.Rate() <= driftFault.Rate() {
		r.note("WARNING: failure-aware dispatch is not strictly better inside fault windows")
	}
	if awareRestored {
		r.note("post-fault recovery restored the pristine plan (objective matches the pre-fault optimum exactly)")
	} else {
		r.note("WARNING: recovery did not restore the pre-fault plan")
	}
	return nil
}

func boolInt(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

package experiments

import (
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/stats"
)

// e13OnlineAdaptation regenerates Figure 12: a fading uplink drives the
// online dispatcher, comparing a static plan (planned once against the
// long-run mean rate) with epoch-wise replanning.
func e13OnlineAdaptation(r *Report) error {
	const (
		horizon = 240.0
		epoch   = 20.0
	)
	link, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States:    []float64{netmodel.Mbps(2), netmodel.Mbps(12), netmodel.Mbps(45)},
		MeanDwell: 8, Horizon: 300, RTT: 0.004, Seed: 404,
	})
	if err != nil {
		return err
	}
	build := func() *joint.Scenario {
		sc := mixedScenario(6, 3, 0.35, 25)
		sc.Servers = sc.Servers[:1]
		sc.Servers[0].Link = link
		return sc
	}

	// Static arm: plan once against the long-run mean, simulate the whole
	// horizon against the true fading link.
	scStatic := build()
	scStatic.PlanningHorizon = horizon
	staticPlan, err := (&joint.Planner{}).Plan(scStatic)
	if err != nil {
		return err
	}
	staticRes, err := joint.Simulate(scStatic, staticPlan, horizon, sim.DedicatedShares)
	if err != nil {
		return err
	}

	// Online arm: replan each epoch from the observed window rate, then
	// simulate that epoch's tasks under the refreshed decisions.
	scOnline := build()
	disp, err := joint.NewDispatcher(scOnline, &joint.Planner{})
	if err != nil {
		return err
	}
	online, epochs, err := replay(scOnline, horizon, epoch, nil, func(_ int, start float64) (*joint.Plan, error) {
		return disp.ObserveWindow(start, epoch)
	})
	if err != nil {
		return err
	}
	epochTable := r.table("Per-epoch outcomes",
		"epoch-start(s)", "observed-uplink(Mbps)", "static-p95(ms)", "online-p95(ms)")
	for ei, ep := range epochs {
		start := float64(ei) * epoch
		var epochStatic stats.Series
		for i := range staticRes.Records {
			rec := &staticRes.Records[i]
			if rec.Arrival >= start && rec.Arrival < start+epoch {
				epochStatic.Add(rec.Latency)
			}
		}
		obs := netmodel.WindowRate(link, start, epoch)
		epochTable.AddRow(start, obs/1e6, epochStatic.P95()*1000, ep.lat.P95()*1000)
	}

	staticLat := staticRes.Latencies()
	t := r.table("Overall comparison",
		"arm", "mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "deadline-rate")
	t.AddRow("static", staticLat.Mean()*1000, staticLat.P50()*1000,
		staticLat.P95()*1000, staticLat.P99()*1000, staticRes.DeadlineRate())
	t.AddRow("online", online.lat.Mean()*1000, online.lat.P50()*1000,
		online.lat.P95()*1000, online.lat.P99()*1000, online.met.Rate())
	r.note("online replanning vs static at P99: %.2fx (%.0f ms vs %.0f ms); deadline rate %.3f vs %.3f",
		staticLat.P99()/online.lat.P99(), staticLat.P99()*1000, online.lat.P99()*1000,
		online.met.Rate(), staticRes.DeadlineRate())
	return nil
}

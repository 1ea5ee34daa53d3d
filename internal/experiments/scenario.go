package experiments

import (
	"fmt"
	"os"

	"edgesurgeon/internal/config"
	"edgesurgeon/internal/joint"
)

// ScenarioSpec is the experiment `experiments -scenario` runs on the JSON
// scenario at path (schema in internal/config): the scenario planned and
// simulated over its own horizon under the comparison set every E-series
// figure uses, reported as one row per strategy plus the joint plan's
// per-user decisions.
func ScenarioSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	sc, horizon, err := config.Parse(data)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		ID: "scenario", Artifact: path,
		Title: fmt.Sprintf("%d users on %d servers over %gs, dedicated shares", len(sc.Users), len(sc.Servers), horizon),
		Run:   func(r *Report) error { return scenarioRun(r, sc, horizon) },
	}, nil
}

func scenarioRun(r *Report, sc *joint.Scenario, horizon float64) error {
	// The arms share sc: planning and simulation only read a scenario.
	res, err := grid[string]{points: []string{r.Artifact}, strategies: strategiesUnderTest,
		scenario: func(string) *joint.Scenario { return sc }, horizon: horizon}.run()
	if err != nil {
		return err
	}
	t := r.table("Strategies", "strategy", "objective", "feasible", "mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)",
		"deadline-rate", "mean-acc", "energy(J/task)")
	for si, s := range strategiesUnderTest() {
		o := res[0][si]
		lat := o.Latencies()
		t.AddRow(s.Name(), o.plan.Objective, o.plan.Feasible, lat.Mean()*1000, lat.P50()*1000, lat.P95()*1000,
			lat.P99()*1000, o.DeadlineRate(), o.MeanAccuracy(), o.MeanDeviceEnergy())
	}
	d := r.table("Joint plan per user", "user", "surgery", "server", "compute-share", "bandwidth-share",
		"exp-latency(ms)", "exp-accuracy")
	for i, dec := range res[0][0].plan.Decisions {
		d.AddRow(sc.Users[i].Name, dec.Plan.String(), dec.Server, dec.ComputeShare, dec.BandwidthShare,
			dec.Latency()*1000, dec.Eval.Accuracy)
	}
	return nil
}

package experiments

import "edgesurgeon/internal/joint"

// simHorizon is the simulated time per multi-user data point.
const simHorizon = 40.0

// e4UserScaling regenerates Figure 4: simulated mean and P95 latency as
// the number of concurrent users grows on two fixed servers.
func e4UserScaling(r *Report) error {
	strategies := strategiesUnderTest()
	t := r.table("Simulated latency vs user count", strategyHeaders("users", strategies, "-mean(ms)", "-p95(ms)")...)

	counts := []int{1, 2, 4, 8, 16, 32}
	res, err := grid[int]{points: counts, strategies: strategiesUnderTest,
		scenario: func(n int) *joint.Scenario { return mixedScenario(n, 1.5, 0, 60) }}.run()
	if err != nil {
		return err
	}
	gaps := make([]float64, len(counts)) // best baseline mean / joint mean
	for ci, n := range counts {
		row := []any{n}
		var jointMean, bestBaseMean float64
		for si := range strategies {
			lat := res[ci][si].Latencies()
			row = append(row, lat.Mean()*1000, lat.P95()*1000)
			if si == 0 {
				jointMean = lat.Mean()
			} else if bestBaseMean == 0 || lat.Mean() < bestBaseMean {
				bestBaseMean = lat.Mean()
			}
		}
		t.AddRow(row...)
		gaps[ci] = bestBaseMean / jointMean
	}
	last := len(counts) - 1
	r.note("joint advantage over best baseline: %.2fx at N=%d, %.2fx at N=%d (gap %s with contention)",
		gaps[0], counts[0], gaps[last], counts[last],
		map[bool]string{true: "widens", false: "narrows"}[gaps[last] > gaps[0]])
	return nil
}

// e5DeadlineVsRate regenerates Figure 5: deadline satisfaction ratio as
// the per-user arrival rate sweeps upward (12 users, 300 ms SLO).
func e5DeadlineVsRate(r *Report) error {
	strategies := strategiesUnderTest()
	t := r.table("Deadline satisfaction ratio", strategyHeaders("rate(req/s/user)", strategies, "")...)

	rates := []float64{1, 2, 4, 8, 16, 24}
	res, err := grid[float64]{points: rates, strategies: strategiesUnderTest,
		scenario: func(rate float64) *joint.Scenario { return mixedScenario(12, rate, 0.3, 100) }}.run()
	if err != nil {
		return err
	}
	sustained := map[string]float64{}
	collapsed := map[string]bool{}
	for ri, rate := range rates {
		row := []any{rate}
		for si, s := range strategies {
			dr := res[ri][si].DeadlineRate()
			row = append(row, dr)
			if !collapsed[s.Name()] && dr >= 0.9 {
				sustained[s.Name()] = rate
			} else {
				collapsed[s.Name()] = true
			}
		}
		t.AddRow(row...)
	}
	for _, s := range strategies {
		r.note("%s sustains >=90%% satisfaction up to %g req/s/user", s.Name(), sustained[s.Name()])
	}
	return nil
}

// e7Ablation regenerates Figure 7: the joint planner against its
// single-axis ablations at three load levels.
func e7Ablation(r *Report) error {
	ablations := func() []joint.Strategy {
		return []joint.Strategy{
			&joint.Planner{},
			&joint.Planner{Opt: joint.Options{DisableAllocation: true}},
			&joint.Planner{Opt: joint.Options{DisableSurgery: true}},
			&joint.Planner{Opt: joint.Options{DisableSurgery: true, DisableAllocation: true}},
		}
	}
	t := r.table("Simulated latency by ablation arm", strategyHeaders("load(req/s/user)", ablations(), "-mean(ms)", "-p99(ms)")...)

	loads := []float64{2, 6, 12}
	res, err := grid[float64]{points: loads, strategies: ablations,
		scenario: func(load float64) *joint.Scenario { return mixedScenario(12, load, 0, 25) }}.run()
	if err != nil {
		return err
	}
	synergy := true
	for li, load := range loads {
		row := []any{load}
		var means []float64
		for _, o := range res[li] {
			lat := o.Latencies()
			means = append(means, lat.Mean())
			row = append(row, lat.Mean()*1000, lat.P99()*1000)
		}
		t.AddRow(row...)
		// Joint must beat both single arms; both single arms must beat
		// neither (at least weakly).
		if !(means[0] <= means[1]*1.05 && means[0] <= means[2]*1.05) {
			synergy = false
		}
	}
	if synergy {
		r.note("joint <= each single-axis arm at every load: the two mechanisms compose")
	} else {
		r.note("WARNING: an ablation arm beat joint at some load")
	}
	return nil
}

// e8Heterogeneity regenerates Figure 8: fixed aggregate capacity deployed
// as homogeneous twins vs a heterogeneous (strong + weak) pair.
func e8Heterogeneity(r *Report) error {
	gpu := mustDevice("edge-gpu-t4")
	type split struct {
		name    string
		factors [2]float64
	}
	configs := []split{
		{"homogeneous(0.5+0.5)", [2]float64{0.5, 0.5}},
		{"mild(0.65+0.35)", [2]float64{0.65, 0.35}},
		{"strong(0.8+0.2)", [2]float64{0.8, 0.2}},
	}
	t := r.table("Simulated mean latency by capacity split", strategyHeaders("capacity-split", strategiesUnderTest(), "-mean(ms)")...)

	res, err := grid[split]{points: configs, strategies: strategiesUnderTest,
		scenario: func(cfg split) *joint.Scenario {
			sc := mixedScenario(12, 4, 0, 25)
			sc.Servers[0].Profile = gpu.Scale(cfg.factors[0], "gpu-a")
			sc.Servers[1].Profile = gpu.Scale(cfg.factors[1], "gpu-b")
			return sc
		}}.run()
	if err != nil {
		return err
	}
	for ci, cfg := range configs {
		row := []any{cfg.name}
		for _, o := range res[ci] {
			row = append(row, o.Latencies().Mean()*1000)
		}
		t.AddRow(row...)
	}
	// Strategy 0 is joint.
	jHomo := res[0][0].Latencies().Mean()
	jHet := res[2][0].Latencies().Mean()
	r.note("joint under strong heterogeneity vs homogeneous: %.2fx (values %.1f vs %.1f ms)",
		jHet/jHomo, jHet*1000, jHomo*1000)
	return nil
}

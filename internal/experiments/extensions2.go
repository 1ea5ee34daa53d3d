package experiments

import (
	"fmt"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/stats"
)

// e17PriorityWeights regenerates the service-differentiation figure:
// two user classes share the cluster, gold users carrying 4x the weight of
// bronze users in the objective. The weighted allocation must buy gold
// users lower latency without starving bronze.
func e17PriorityWeights(r *Report) error {
	sc := mixedScenario(12, 4, 0, 25)
	for i := range sc.Users {
		if i%2 == 0 {
			sc.Users[i].Weight = 4
			sc.Users[i].Name = fmt.Sprintf("gold%02d", i)
		} else {
			sc.Users[i].Weight = 1
			sc.Users[i].Name = fmt.Sprintf("bronze%02d", i)
		}
	}
	plan, res, err := joint.PlanAndSimulate(sc, &joint.Planner{}, simHorizon, sim.DedicatedShares)
	if err != nil {
		return err
	}
	classMean := func(gold bool) (analytic, simulated float64) {
		var sumA, sumS float64
		var n int
		for i := range sc.Users {
			if (sc.Users[i].Weight == 4) != gold {
				continue
			}
			sumA += plan.Decisions[i].Latency()
			sumS += res.PerUser[i].Latency.Mean()
			n++
		}
		return sumA / float64(n), sumS / float64(n)
	}
	goldA, goldS := classMean(true)
	bronzeA, bronzeS := classMean(false)

	t := r.table("Class outcomes",
		"class", "exp-latency(ms)", "sim-mean(ms)", "sim-p95(ms)")
	p95 := func(gold bool) float64 {
		var s stats.Series
		for i := range res.Records {
			if (sc.Users[res.Records[i].User].Weight == 4) == gold {
				s.Add(res.Records[i].Latency)
			}
		}
		return s.P95()
	}
	t.AddRow("gold(w=4)", goldA*1000, goldS*1000, p95(true)*1000)
	t.AddRow("bronze(w=1)", bronzeA*1000, bronzeS*1000, p95(false)*1000)

	if goldA < bronzeA {
		r.note("gold expected latency %.1f ms < bronze %.1f ms: weights buy differentiated service", goldA*1000, bronzeA*1000)
	} else {
		r.note("WARNING: gold class not faster analytically (%.1f vs %.1f ms)", goldA*1000, bronzeA*1000)
	}
	if bronzeS > 0 && goldS > 0 {
		r.note("simulated class means: gold %.1f ms, bronze %.1f ms (ratio %.2f)", goldS*1000, bronzeS*1000, bronzeS/goldS)
	}
	return nil
}

// e18DisciplineSensitivity regenerates the robustness check for the GPS
// idealization: each strategy's plan replayed under dedicated-share lanes,
// processor sharing and no-allocation FCFS. The strategy ordering must not
// depend on the service-discipline model.
func e18DisciplineSensitivity(r *Report) error {
	strategies := strategiesUnderTest()
	type discipline struct {
		name string
		d    sim.Discipline
	}
	disciplines := []discipline{
		{"dedicated-shares", sim.DedicatedShares},
		{"processor-sharing", sim.ProcessorSharing},
		{"shared-fcfs", sim.SharedFCFS},
	}
	headers := []string{"strategy"}
	for _, d := range disciplines {
		headers = append(headers, d.name+"-mean(ms)")
	}
	t := r.table("Mean latency by discipline", headers...)

	res, err := grid[discipline]{points: disciplines, strategies: strategiesUnderTest,
		scenario:   func(discipline) *joint.Scenario { return mixedScenario(12, 3, 0.3, 40) },
		discipline: func(d discipline) sim.Discipline { return d.d }}.run()
	if err != nil {
		return err
	}
	means := map[string][]float64{}
	for si, s := range strategies {
		row := []any{s.Name()}
		for di, d := range disciplines {
			m := res[di][si].Latencies().Mean()
			means[d.name] = append(means[d.name], m)
			row = append(row, m*1000)
		}
		t.AddRow(row...)
	}

	// The joint planner (strategy 0) must be the fastest under every
	// discipline.
	robust := true
	for _, d := range disciplines {
		arr := means[d.name]
		for i := 1; i < len(arr); i++ {
			if arr[0] > arr[i]*1.02 {
				robust = false
				r.note("WARNING: under %s, %s (%.1f ms) beat joint (%.1f ms)",
					d.name, strategies[i].Name(), arr[i]*1000, arr[0]*1000)
			}
		}
	}
	if robust {
		r.note("joint remains the fastest strategy under all three service-discipline models")
	}
	return nil
}

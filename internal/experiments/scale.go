package experiments

import (
	"fmt"
	"runtime"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// e21Config builds a planner-free heavy-traffic scenario: nUsers cycling
// over three device classes, assigned round-robin to nServers GPU servers,
// all running a light multi-exit MobileNetV2 plan. Records are dropped —
// this is the streaming-aggregation regime the sharded simulator exists
// for.
func e21Config(nUsers, nServers int, horizon float64, disc sim.Discipline) sim.Config {
	devices := []*hardware.Profile{mustDevice("rpi4"), mustDevice("phone-soc"), mustDevice("jetson-nano")}
	srv := mustDevice("edge-gpu-t4")
	m := dnn.MobileNetV2()
	cand := m.ExitCandidates()
	plan := surgery.Plan{Model: m, Exits: cand[1:3], Theta: 0.2, Partition: 3}

	cfg := sim.Config{Discipline: disc, Horizon: horizon}
	perServer := make([]int, nServers)
	for ui := 0; ui < nUsers; ui++ {
		perServer[ui%nServers]++
	}
	for s := 0; s < nServers; s++ {
		link := netmodel.NewStatic(fmt.Sprintf("ap%d", s), netmodel.Mbps(100), 0.004)
		cfg.Servers = append(cfg.Servers, sim.ServerConfig{Profile: srv, Link: link})
	}
	cfg.Users = make([]sim.UserConfig, 0, nUsers)
	for ui := 0; ui < nUsers; ui++ {
		s := ui % nServers
		share := 1 / float64(perServer[s])
		tasks := workload.Spec{
			User: ui, Rate: 0.2, Arrivals: workload.Poisson,
			Difficulty: workload.EasyBiased, Deadline: 0.5,
			Seed: int64(40000 + ui),
		}.Generate(horizon)
		cfg.Users = append(cfg.Users, sim.UserConfig{
			Plan: plan, Device: devices[ui%len(devices)], Server: s,
			ComputeShare: share, BandwidthShare: share,
			Tasks: tasks,
		})
	}
	return cfg
}

// e21Scale times one simulation per (size, discipline) arm and reports its
// throughput and allocations per event. The sizes slice parameterizes small
// CI runs vs the full experiment.
func e21Scale(r *Report, sizes []int, nServers int, horizon float64) error {
	r.Title = fmt.Sprintf("Simulator throughput (%d servers, ProcessorSharing + DedicatedShares)", nServers)
	t := r.table("Heavy-traffic events/sec",
		"users", "discipline", "events", "wall(s)", "events/sec", "allocs/event")
	cores := runtime.GOMAXPROCS(0)
	discNames := map[sim.Discipline]string{
		sim.ProcessorSharing: "processor-sharing",
		sim.DedicatedShares:  "dedicated-shares",
	}
	var bestEPS, lastAllocs float64
	for _, n := range sizes {
		for _, disc := range []sim.Discipline{sim.ProcessorSharing, sim.DedicatedShares} {
			cfg := e21Config(n, nServers, horizon, disc)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, sec, err := timed(func() (*sim.Result, error) { return sim.Run(cfg) })
			if err != nil {
				return fmt.Errorf("E21 n=%d: %w", n, err)
			}
			runtime.ReadMemStats(&m1)

			allocsPerEvent := float64(m1.Mallocs-m0.Mallocs) / float64(res.Events)
			eps := float64(res.Events) / sec
			t.AddRow(n, discNames[disc], res.Events, sec, eps, allocsPerEvent)
			bestEPS = max(bestEPS, eps)
			lastAllocs = allocsPerEvent
		}
	}
	r.Metrics["cores"] = float64(cores)
	r.Metrics["users_max"] = float64(sizes[len(sizes)-1])
	r.Metrics["events_per_sec"] = bestEPS
	r.Metrics["allocs_per_event"] = lastAllocs
	r.note("best throughput %.3g events/sec on %d core(s); the simulator runs on one of them", bestEPS, cores)
	return nil
}

package joint

import (
	"edgesurgeon/internal/sim"
	"edgesurgeon/internal/workload"
)

// BuildSimConfig converts a scenario plus a plan into a runnable simulator
// configuration, generating each user's task stream over the horizon.
func BuildSimConfig(sc *Scenario, plan *Plan, horizon float64, discipline sim.Discipline) sim.Config {
	// Existing consumers (experiments, examples, trace export) read
	// Records, so the bridge keeps them; heavy-traffic callers clear the
	// flag on the returned config.
	cfg := sim.Config{Discipline: discipline, KeepRecords: true}
	for _, s := range sc.Servers {
		cfg.Servers = append(cfg.Servers, sim.ServerConfig{Profile: s.Profile, Link: s.Link})
	}
	for ui := range sc.Users {
		u := &sc.Users[ui]
		d := &plan.Decisions[ui]
		spec := workload.Spec{
			User:        ui,
			Rate:        u.Rate,
			Arrivals:    u.Arrivals,
			BurstFactor: u.BurstFactor,
			Difficulty:  u.Difficulty,
			Deadline:    u.Deadline,
			Seed:        u.Seed,
		}
		cfg.Users = append(cfg.Users, sim.UserConfig{
			Plan:           d.Plan,
			Device:         u.Device,
			Server:         d.Server,
			ComputeShare:   orOne(d.ComputeShare),
			BandwidthShare: orOne(d.BandwidthShare),
			Curves:         sc.Curves,
			TxFactor:       u.TxCompression,
			Tasks:          spec.Generate(horizon),
		})
	}
	return cfg
}

// Simulate plans nothing: it runs an existing plan through the simulator
// over the horizon and returns the result.
func Simulate(sc *Scenario, plan *Plan, horizon float64, discipline sim.Discipline) (*sim.Result, error) {
	return sim.Run(BuildSimConfig(sc, plan, horizon, discipline))
}

// PlanAndSimulate is the one-call convenience used by experiments: plan the
// scenario with the strategy, then replay it in the simulator.
func PlanAndSimulate(sc *Scenario, s Strategy, horizon float64, discipline sim.Discipline) (*Plan, *sim.Result, error) {
	plan, err := s.Plan(sc)
	if err != nil {
		return nil, nil, err
	}
	res, err := Simulate(sc, plan, horizon, discipline)
	if err != nil {
		return plan, nil, err
	}
	return plan, res, nil
}

// Package config parses JSON scenario descriptions into joint.Scenario
// values, so deployments can be described declaratively: cmd/edgeserved
// serves one, `experiments -scenario` plans and simulates one, and the
// data-plane agents resolve their copy of it.
package config

import (
	"encoding/json"
	"fmt"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

// Scenario is the JSON schema for a deployment.
type Scenario struct {
	// HorizonSec is the simulated duration (default 60).
	HorizonSec float64  `json:"horizon"`
	Servers    []Server `json:"servers"`
	Users      []User   `json:"users"`
}

// Server is the JSON schema for one edge server.
type Server struct {
	Name    string `json:"name"`
	Profile string `json:"profile"` // hardware catalog name
	// UplinkMbps sets a static uplink; Fading (if non-nil) overrides it.
	UplinkMbps float64 `json:"uplinkMbps"`
	RTTMs      float64 `json:"rttMs"`
	Fading     *Fading `json:"fading,omitempty"`
}

// Fading is the JSON schema for a Markov-fading uplink.
type Fading struct {
	StatesMbps []float64 `json:"statesMbps"`
	MeanDwell  float64   `json:"meanDwellSec"`
	Seed       int64     `json:"seed"`
}

// User is the JSON schema for one user/application.
type User struct {
	Name        string  `json:"name"`
	Model       string  `json:"model"`  // dnn zoo name
	Device      string  `json:"device"` // hardware catalog name
	Rate        float64 `json:"rate"`
	DeadlineMs  float64 `json:"deadlineMs"`
	Weight      float64 `json:"weight"`
	MinAccuracy float64 `json:"minAccuracy"`
	// Difficulty: uniform | easy-biased | hard-biased | bimodal.
	Difficulty string `json:"difficulty"`
	// Arrivals: poisson | mmpp | periodic.
	Arrivals    string  `json:"arrivals"`
	BurstFactor float64 `json:"burstFactor"`
	Seed        int64   `json:"seed"`
}

// Parse decodes a JSON scenario and resolves all names.
func Parse(data []byte) (*joint.Scenario, float64, error) {
	var raw Scenario
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, 0, fmt.Errorf("config: %w", err)
	}
	horizon := raw.HorizonSec
	if horizon <= 0 {
		horizon = 60
	}
	// One instance per catalog name for the whole scenario: the planner's
	// frontier tables key on model and profile identity,
	// so users of one class must share pointers or every user becomes a
	// class of its own.
	models := map[string]*dnn.Model{}
	profiles := map[string]*hardware.Profile{}
	sc := &joint.Scenario{}
	for i, s := range raw.Servers {
		prof, err := interned(profiles, s.Profile, hardware.ByName)
		if err != nil {
			return nil, 0, fmt.Errorf("config: server %d: %w", i, err)
		}
		rtt := s.RTTMs / 1000
		var link netmodel.Link
		if s.Fading != nil {
			states := make([]float64, len(s.Fading.StatesMbps))
			for j, v := range s.Fading.StatesMbps {
				states[j] = netmodel.Mbps(v)
			}
			link, err = netmodel.NewFading(s.Name+".uplink", netmodel.FadingConfig{
				States: states, MeanDwell: s.Fading.MeanDwell,
				Horizon: horizon * 2, RTT: rtt, Seed: s.Fading.Seed,
			})
			if err != nil {
				return nil, 0, fmt.Errorf("config: server %d: %w", i, err)
			}
		} else {
			if s.UplinkMbps <= 0 {
				return nil, 0, fmt.Errorf("config: server %d (%s): needs uplinkMbps or fading", i, s.Name)
			}
			link = netmodel.NewStatic(s.Name+".uplink", netmodel.Mbps(s.UplinkMbps), rtt)
		}
		sc.Servers = append(sc.Servers, joint.Server{
			Name: s.Name, Profile: prof, Link: link, RTT: rtt,
		})
	}
	for i, u := range raw.Users {
		m, err := interned(models, u.Model, dnn.ByName)
		if err != nil {
			return nil, 0, fmt.Errorf("config: user %d: %w", i, err)
		}
		dev, err := interned(profiles, u.Device, hardware.ByName)
		if err != nil {
			return nil, 0, fmt.Errorf("config: user %d: %w", i, err)
		}
		diff, err := parseDifficulty(u.Difficulty)
		if err != nil {
			return nil, 0, fmt.Errorf("config: user %d: %w", i, err)
		}
		arr, err := parseArrivals(u.Arrivals)
		if err != nil {
			return nil, 0, fmt.Errorf("config: user %d: %w", i, err)
		}
		seed := u.Seed
		if seed == 0 {
			seed = int64(7919 * (i + 1))
		}
		sc.Users = append(sc.Users, joint.User{
			Name: u.Name, Model: m, Device: dev,
			Rate: u.Rate, Deadline: u.DeadlineMs / 1000,
			Weight: u.Weight, MinAccuracy: u.MinAccuracy,
			Difficulty: diff, Arrivals: arr, BurstFactor: u.BurstFactor,
			Seed: seed,
		})
	}
	if err := sc.Validate(); err != nil {
		return nil, 0, err
	}
	return sc, horizon, nil
}

// interned returns the instance already resolved for name, resolving and
// remembering it on first use.
func interned[T any](seen map[string]*T, name string, byName func(string) (*T, error)) (*T, error) {
	if v, ok := seen[name]; ok {
		return v, nil
	}
	v, err := byName(name)
	if err == nil {
		seen[name] = v
	}
	return v, err
}

func parseDifficulty(s string) (workload.DifficultyKind, error) {
	switch s {
	case "", "uniform":
		return workload.UniformDifficulty, nil
	case "easy-biased":
		return workload.EasyBiased, nil
	case "hard-biased":
		return workload.HardBiased, nil
	case "bimodal":
		return workload.Bimodal, nil
	default:
		return 0, fmt.Errorf("unknown difficulty %q", s)
	}
}

func parseArrivals(s string) (workload.ArrivalKind, error) {
	switch s {
	case "", "poisson":
		return workload.Poisson, nil
	case "mmpp":
		return workload.MMPP, nil
	case "periodic":
		return workload.Periodic, nil
	default:
		return 0, fmt.Errorf("unknown arrival kind %q", s)
	}
}

package config

import (
	"fmt"
	"strings"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/serve"
	"edgesurgeon/internal/workload"
)

const sample = `{
  "horizon": 30,
  "servers": [
    {"name": "gpu", "profile": "edge-gpu-t4", "uplinkMbps": 40, "rttMs": 4},
    {"name": "fady", "profile": "edge-cpu-16c", "rttMs": 6,
     "fading": {"statesMbps": [2, 20], "meanDwellSec": 5, "seed": 3}}
  ],
  "users": [
    {"name": "cam", "model": "resnet18", "device": "rpi4", "rate": 2,
     "deadlineMs": 300, "difficulty": "easy-biased", "arrivals": "mmpp",
     "burstFactor": 3, "minAccuracy": 0.7},
    {"name": "drone", "model": "mobilenetv2", "device": "jetson-nano", "rate": 10}
  ]
}`

func TestParseSample(t *testing.T) {
	sc, horizon, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 30 {
		t.Errorf("horizon = %g", horizon)
	}
	if len(sc.Servers) != 2 || len(sc.Users) != 2 {
		t.Fatalf("parsed %d servers, %d users", len(sc.Servers), len(sc.Users))
	}
	if sc.Servers[0].Profile.Name != "edge-gpu-t4" {
		t.Errorf("server profile %q", sc.Servers[0].Profile.Name)
	}
	if sc.Servers[1].Link.RateAt(0) <= 0 {
		t.Error("fading link has no rate")
	}
	u := sc.Users[0]
	if u.Deadline != 0.3 || u.Difficulty != workload.EasyBiased || u.Arrivals != workload.MMPP {
		t.Errorf("user fields wrong: %+v", u)
	}
	if u.MinAccuracy != 0.7 {
		t.Errorf("minAccuracy = %g", u.MinAccuracy)
	}
	if sc.Users[1].Seed == 0 {
		t.Error("default seed not assigned")
	}
}

func TestParseDefaults(t *testing.T) {
	_, horizon, err := Parse([]byte(`{"users":[{"name":"x","model":"alexnet","device":"rpi4","rate":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 60 {
		t.Errorf("default horizon = %g", horizon)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown model":   `{"users":[{"name":"x","model":"lenet","device":"rpi4","rate":1}]}`,
		"unknown device":  `{"users":[{"name":"x","model":"alexnet","device":"cray","rate":1}]}`,
		"unknown profile": `{"servers":[{"name":"s","profile":"cray","uplinkMbps":1}],"users":[{"name":"x","model":"alexnet","device":"rpi4","rate":1}]}`,
		"no uplink":       `{"servers":[{"name":"s","profile":"edge-gpu-t4"}],"users":[{"name":"x","model":"alexnet","device":"rpi4","rate":1}]}`,
		"bad difficulty":  `{"users":[{"name":"x","model":"alexnet","device":"rpi4","rate":1,"difficulty":"spicy"}]}`,
		"bad arrivals":    `{"users":[{"name":"x","model":"alexnet","device":"rpi4","rate":1,"arrivals":"never"}]}`,
		"no users":        `{"servers":[{"name":"s","profile":"edge-gpu-t4","uplinkMbps":5}]}`,
	}
	for name, js := range cases {
		if _, _, err := Parse([]byte(js)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestParseRejectsUnboundedFading: a fading horizon of 2.5·10^17 mean dwells
// would grow the link's trace until memory runs out; Parse must instead
// return at once with an error naming the link.
func TestParseRejectsUnboundedFading(t *testing.T) {
	js := `{"horizon": 1e18,
	  "servers": [{"name": "fady", "profile": "edge-cpu-16c", "rttMs": 6,
	    "fading": {"statesMbps": [2, 20], "meanDwellSec": 8, "seed": 3}}],
	  "users": [{"name": "x", "model": "alexnet", "device": "rpi4", "rate": 1}]}`
	_, _, err := Parse([]byte(js))
	if err == nil || !strings.Contains(err.Error(), `"fady.uplink"`) {
		t.Fatalf("error %v, want one naming fady.uplink", err)
	}
}

// TestParseInternsCatalogInstances: users and servers naming one catalog
// entry share one instance — the planner's surgery cache and frontier tables
// key on pointer identity, so this is what keeps them O(classes) for parsed
// scenarios — and interning changes nothing about the plan itself.
func TestParseInternsCatalogInstances(t *testing.T) {
	var users []string
	for i := 0; i < 6; i++ {
		users = append(users, fmt.Sprintf(`{"name":"u%d","model":"resnet18","device":"rpi4","rate":%d,"deadlineMs":300}`, i, 1+i%3))
	}
	js := `{"servers":[
	  {"name":"a","profile":"edge-gpu-t4","uplinkMbps":40,"rttMs":4},
	  {"name":"b","profile":"edge-gpu-t4","uplinkMbps":25,"rttMs":6}],
	  "users":[` + strings.Join(users, ",") + `]}`
	sc, _, err := Parse([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Users {
		if sc.Users[i].Model != sc.Users[0].Model || sc.Users[i].Device != sc.Users[0].Device {
			t.Fatalf("user %d does not share user 0's model/device instances", i)
		}
	}
	if sc.Servers[0].Profile != sc.Servers[1].Profile {
		t.Fatal("servers of one profile do not share an instance")
	}

	// The same scenario with every user and server on a private instance.
	fresh := *sc
	fresh.Users = append([]joint.User(nil), sc.Users...)
	fresh.Servers = append([]joint.Server(nil), sc.Servers...)
	for i := range fresh.Users {
		u := &fresh.Users[i]
		if u.Model, err = dnn.ByName(u.Model.Name); err != nil {
			t.Fatal(err)
		}
		if u.Device, err = hardware.ByName(u.Device.Name); err != nil {
			t.Fatal(err)
		}
	}
	for i := range fresh.Servers {
		if fresh.Servers[i].Profile, err = hardware.ByName(fresh.Servers[i].Profile.Name); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Users[0].Model == fresh.Users[1].Model {
		t.Fatal("dnn.ByName returned a shared instance; the un-interned arm is not un-interned")
	}
	planner := &joint.Planner{}
	interned, err := planner.Plan(sc)
	if err != nil {
		t.Fatal(err)
	}
	private, err := planner.Plan(&fresh)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := serve.EncodePlan(interned), serve.EncodePlan(private); a != b {
		t.Errorf("interning changed the initial plan:\n%s\nvs\n%s", a, b)
	}
}

package main

// gen.go makes every workload's inputs from the seed. The program under
// test receives only what is generated here, as scenario JSON or as
// telemetry samples; the same seed gives the same inputs.
//
// What the seed varies, and what it deliberately does not. It draws the
// request order and the crossing sampler of the plane workloads, the
// telemetry noise and which server plays which part in control_replay's
// drift schedule, and which class the control populations' cycle starts
// with. The class mix and cyclic order of every population, the drift
// schedule of control_replay and the fading realisation of plane_paced are
// part of each workload's definition: the planner's work depends on user
// order by ±15 % at 400 users, and one measuring window sees too few fading
// dwells or replans for a different realisation to be the same workload.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// zeroPhysics is the TimeScale at which every modelled sleep of the data
// plane rounds to zero nanoseconds, so only the plane's own cost remains.
const zeroPhysics = 1e-9

// seededRand returns the generator for one named input stream of a seed.
func seededRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func mustJSON(doc scenarioDoc) []byte {
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a scenarioDoc of plain fields always marshals
	}
	return data
}

// twoServers is the plane workloads' edge: one GPU and one CPU server.
func twoServers() []serverDoc {
	return []serverDoc{
		{Name: "edge-gpu", Profile: "edge-gpu-t4", RTTMs: 4, UplinkMbps: 32},
		{Name: "edge-cpu", Profile: "edge-cpu-16c", RTTMs: 6, UplinkMbps: 22},
	}
}

// uniformPlaneScenario is plane_local's and plane_offload's population: 64
// users of one device class running resnet18 behind static links. On
// phone-soc every plan is device-only; on mcu-m7 every plan is partition 0.
func uniformPlaneScenario(device string, seed int64) []byte {
	doc := scenarioDoc{HorizonSec: 600, Servers: twoServers()}
	for i := 0; i < 64; i++ {
		doc.Users = append(doc.Users, userDoc{
			Name: fmt.Sprintf("u%02d", i), Model: "resnet18", Device: device,
			Rate: 2, DeadlineMs: 300, Difficulty: "easy-biased", Seed: seed*10000 + int64(i),
		})
	}
	return mustJSON(doc)
}

// pacedDevices and pacedModels cycle over plane_paced's 48 users: 12
// classes of 4 users, a quarter of them (mcu-m7) forced to offload.
var (
	pacedDevices = []string{"mcu-m7", "rpi4", "phone-soc", "rpi4"}
	pacedModels  = []string{"resnet18", "alexnet", "mobilenetv2"}
)

// pacedDeadlineMs holds plane_paced's per-class deadlines in model
// milliseconds. They are constants, chosen once as 1.25 x the latency the
// seed code's plan predicts for the class at mean rates, plus 200 ms — 10 ms
// of wall clock at TimeScale 0.05, for what a request loses to the plane
// itself (timer overshoot, replans beside it), which the model does not
// contain. With 100 ms the share landed at 0.80 ± 0.03, on the steep part
// of the overhead distribution; they were retuned once.
var pacedDeadlineMs = map[string]float64{
	"mcu-m7/resnet18":       1470,
	"mcu-m7/alexnet":        1470,
	"mcu-m7/mobilenetv2":    1450,
	"rpi4/resnet18":         403,
	"rpi4/alexnet":          300,
	"rpi4/mobilenetv2":      233,
	"phone-soc/resnet18":    255,
	"phone-soc/alexnet":     227,
	"phone-soc/mobilenetv2": 209,
}

const (
	pacedUsers     = 48
	pacedTimeScale = 0.05
	pacedRate      = 400.0 // offered requests per wall second, all connections
)

// pacedScenario is plane_paced's deployment: Markov-fading uplinks (E27's
// states and dwells, one fixed realisation) and per-user rates that match
// the offered load in model time.
func pacedScenario(seed int64) (data []byte, deadlineSec []float64) {
	servers := twoServers()
	servers[0].Fading = &fadingDoc{StatesMbps: []float64{22, 32, 46}, MeanDwell: 8, Seed: 271}
	servers[1].Fading = &fadingDoc{StatesMbps: []float64{14, 22, 30}, MeanDwell: 10, Seed: 272}
	doc := scenarioDoc{HorizonSec: 600, Servers: servers}
	perUserRate := pacedRate / pacedUsers * pacedTimeScale
	for i := 0; i < pacedUsers; i++ {
		device, model := pacedDevices[i%len(pacedDevices)], pacedModels[i%len(pacedModels)]
		dl := pacedDeadlineMs[device+"/"+model]
		doc.Users = append(doc.Users, userDoc{
			Name: fmt.Sprintf("u%02d", i), Model: model, Device: device,
			Rate: perUserRate, DeadlineMs: dl, Difficulty: "easy-biased", Seed: seed*10000 + int64(i),
		})
		deadlineSec = append(deadlineSec, dl/1e3)
	}
	return mustJSON(doc), deadlineSec
}

// class is one (device, model) pair of a population.
type class struct{ device, model string }

// crossClasses is the full devices x models product, in cycling order.
func crossClasses(devices, models []string) []class {
	var out []class
	for i := 0; i < len(devices)*len(models); i++ {
		out = append(out, class{devices[i%len(devices)], models[i%len(models)]})
	}
	return out
}

// classPopulation writes n users cycling over the classes in front of the
// given servers. The seed rotates which class the cycle starts with: the
// class mix and the cyclic structure stay, because the planner's work and
// its objective depend on user order (±15 % and ±1 % under a full shuffle),
// and runs of different seeds must remain comparable.
func classPopulation(n int, classes []class, deadlineMs float64, servers []serverDoc, seed int64) []byte {
	doc := scenarioDoc{HorizonSec: 600, Servers: servers}
	k := int64(len(classes))
	first := int((seed%k + k) % k)
	for i := 0; i < n; i++ {
		c := classes[(i+first)%len(classes)]
		doc.Users = append(doc.Users, userDoc{
			Name: fmt.Sprintf("user%05d", i), Model: c.model, Device: c.device,
			Rate: 0.05, DeadlineMs: deadlineMs, Difficulty: "easy-biased", Seed: seed*100000 + int64(i),
		})
	}
	return mustJSON(doc)
}

// controlNominalMbps are control_replay's four uplinks at rest, all
// different so every server keeps its own frontier tables.
var controlNominalMbps = []float64{100, 70, 90, 60}

const (
	controlUsers      = 400
	controlDeadlineMs = 80
)

// controlClasses are control_replay's five user classes. A full replan
// rebuilds one frontier table per class and server, and table cost differs
// a hundredfold between classes; these keep a full replan near a third of a
// second on the reference host, so one run fits several passes of the trace.
var controlClasses = []class{
	{"phone-soc", "resnet18"}, {"phone-soc", "alexnet"}, {"phone-soc", "mobilenetv2"},
	{"rpi4", "squeezenet"}, {"jetson-nano", "vgg16"},
}

// controlScenario is control_replay's deployment: 400 users in 5 classes
// over 4 alternating GPU/CPU servers.
func controlScenario(seed int64) []byte {
	var servers []serverDoc
	for s, mbps := range controlNominalMbps {
		profile, rtt := "edge-gpu-t4", 4.0
		if s%2 == 1 {
			profile, rtt = "edge-cpu-16c", 6.0
		}
		servers = append(servers, serverDoc{Name: fmt.Sprintf("srv%02d", s), Profile: profile, RTTMs: rtt, UplinkMbps: mbps})
	}
	return classPopulation(controlUsers, controlClasses, controlDeadlineMs, servers, seed)
}

// The drift schedule of control_replay: 100 samples two model seconds
// apart. Every 14th sample from the 13th is a replan event, 28 model seconds
// after the last, so the hysteresis debounce (25 s) and budget (3 per 60 s)
// admit every one of them.
const (
	controlSamples   = 100
	controlPeriodSec = 2.0
	controlLowFactor = 0.7
)

// controlEvents lists, per replan event, which servers (as positions in the
// seed's role assignment) flip between their nominal rate and 0.7x of it.
// One flipped server of four is a delta replan; four are more than half the
// servers, so a full replan.
var controlEvents = [][]int{
	{0}, {1}, {0, 1, 2, 3}, {0}, {1}, {0, 1, 2, 3},
}

// controlExpected is what the schedule must make the control plane do.
var controlExpected = replanCounts{Full: 2, Delta: 4, Cheap: 84, Deferred: 0, NoChange: 10}

// controlTrace generates the telemetry control_replay ingests: every sample
// reports all four uplinks at nominal x state x (1 ± 3 %) noise, except each
// tenth sample, which carries no observation at all (a bare heartbeat). The
// seed draws the noise and which server plays which part — GPU servers
// (even) only swap with each other, and CPU servers (odd) likewise, because
// a GPU server's frontier tables cost about twice a CPU server's and the
// work of a run must not depend on the seed.
func controlTrace(seed int64) []sample {
	rng := seededRand(seed, "trace")
	role := []int{0, 1, 2, 3}
	if rng.Intn(2) == 1 {
		role[0], role[2] = 2, 0
	}
	if rng.Intn(2) == 1 {
		role[1], role[3] = 3, 1
	}
	low := make([]bool, len(controlNominalMbps))
	samples := make([]sample, 0, controlSamples)
	for i := 0; i < controlSamples; i++ {
		s := sample{Time: float64(i) * controlPeriodSec, Source: "bench-trace"}
		if k := (i - 13) / 14; i >= 13 && (i-13)%14 == 0 && k < len(controlEvents) {
			for _, pos := range controlEvents[k] {
				low[role[pos]] = !low[role[pos]]
			}
		}
		if i%10 != 4 {
			s.Uplinks = make([]float64, len(controlNominalMbps))
			for srv, mbps := range controlNominalMbps {
				rate := mbps * 1e6 * (0.97 + 0.06*rng.Float64())
				if low[srv] {
					rate *= controlLowFactor
				}
				s.Uplinks[srv] = rate
			}
		}
		samples = append(samples, s)
	}
	return samples
}

const coldUsers = 4000

// coldScenario is plan_cold's deployment: the program's E23 scale-study
// population (3 device classes x 4 models, static 100/70 Mbit/s uplinks)
// at 4000 users over 8 servers.
func coldScenario(seed int64) []byte { return e23Population(coldUsers, seed) }

// e23Population is n users of the E23 class mix over 8 alternating GPU/CPU
// servers.
func e23Population(n int, seed int64) []byte {
	var servers []serverDoc
	for s := 0; s < 8; s++ {
		profile, mbps, rtt := "edge-gpu-t4", 100.0, 4.0
		if s%2 == 1 {
			profile, mbps, rtt = "edge-cpu-16c", 70.0, 6.0
		}
		servers = append(servers, serverDoc{Name: fmt.Sprintf("srv%02d", s), Profile: profile, RTTMs: rtt, UplinkMbps: mbps})
	}
	return classPopulation(n, crossClasses([]string{"rpi4", "phone-soc", "jetson-nano"}, []string{"resnet18", "alexnet", "mobilenetv2", "vgg16"}), 1000, servers, seed)
}

// layerScenarios are the small fixed deployments the per-layer drivers
// run against.
//
// hopScenario has one user whose plan is device-only at index 0 and one
// whose every request crosses at index 1, behind a single server.
func hopScenario() []byte {
	return mustJSON(scenarioDoc{
		HorizonSec: 600,
		Servers:    twoServers()[:1],
		Users: []userDoc{
			{Name: "local", Model: "resnet18", Device: "phone-soc", Rate: 2, DeadlineMs: 300, Difficulty: "easy-biased", Seed: 1},
			{Name: "offload", Model: "resnet18", Device: "mcu-m7", Rate: 2, DeadlineMs: 300, Difficulty: "easy-biased", Seed: 2},
		},
	})
}

// installScenario has 32 users who all offload to the single server, so the
// agent's allocation table has 32 entries.
func installScenario() []byte {
	doc := scenarioDoc{HorizonSec: 600, Servers: twoServers()[:1]}
	for i := 0; i < 32; i++ {
		doc.Users = append(doc.Users, userDoc{
			Name: fmt.Sprintf("u%02d", i), Model: "resnet18", Device: "mcu-m7",
			Rate: 0.1, DeadlineMs: 3000, Difficulty: "easy-biased", Seed: int64(i + 1),
		})
	}
	return mustJSON(doc)
}

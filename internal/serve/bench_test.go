package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/workload"
)

// ingestScenario is BenchmarkIngest's deployment: 64 users in front of four
// servers, two GPUs and two CPUs, on static links.
func ingestScenario(b *testing.B) *joint.Scenario {
	b.Helper()
	byName := func(name string) *hardware.Profile {
		p, err := hardware.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	sc := &joint.Scenario{}
	for s, mbps := range []float64{40, 24, 30, 18} {
		profile := byName("edge-gpu-t4")
		if s%2 == 1 {
			profile = byName("edge-cpu-16c")
		}
		rtt := 0.004 + 0.001*float64(s)
		sc.Servers = append(sc.Servers, joint.Server{
			Name: fmt.Sprintf("s%d", s), Profile: profile, RTT: rtt,
			Link: netmodel.NewStatic(fmt.Sprintf("l%d", s), netmodel.Mbps(mbps), rtt),
		})
	}
	devices := []*hardware.Profile{byName("rpi4"), byName("phone-soc"), byName("jetson-nano")}
	models := []*dnn.Model{dnn.ResNet18(), dnn.AlexNet(), dnn.MobileNetV2(), dnn.VGG16()}
	for i := 0; i < 64; i++ {
		sc.Users = append(sc.Users, joint.User{
			Name:       fmt.Sprintf("u%02d", i),
			Model:      models[i%len(models)],
			Device:     devices[i%len(devices)],
			Rate:       2 + float64(i%3),
			Deadline:   0.3,
			Difficulty: workload.EasyBiased,
			Arrivals:   workload.Poisson,
			Seed:       int64(1000 + i),
		})
	}
	return sc
}

// ingestTrace is the fixed drift trace: 400 samples, 5 s apart, of the four
// servers' uplinks. Every rate carries ±2 % telemetry noise around its
// planning rate, and sample i moves server i%4 to 1.4x that rate or back, so
// every sample drifts exactly one server by more than 20 %.
func ingestTrace(sc *joint.Scenario) []telemetry.Sample {
	rng := rand.New(rand.NewSource(56))
	high := make([]bool, len(sc.Servers))
	trace := make([]telemetry.Sample, 400)
	for i := range trace {
		s := i % len(sc.Servers)
		high[s] = !high[s]
		uplinks := make([]float64, len(sc.Servers))
		for j := range uplinks {
			uplinks[j] = sc.Servers[j].Link.RateAt(0) * (0.98 + 0.04*rng.Float64())
			if high[j] {
				uplinks[j] *= 1.4
			}
		}
		trace[i] = telemetry.Sample{Time: 5 * float64(i+1), Uplinks: uplinks}
	}
	return trace
}

// BenchmarkIngest times one Runtime.Ingest per op on each replanning path,
// over the fixed drift trace, with frontier tables on as cmd/edgeserved runs
// them: "cheap" never replans, so every sample is a cheap refresh; "delta"
// replans the drifted server's shard; "full" replans from scratch. A fresh
// runtime replays the trace from its start whenever it runs out (off the
// clock). probes/op is the optimizer calls that filled table cells
// (planner.frontier.misses) per op.
func BenchmarkIngest(b *testing.B) {
	sc := ingestScenario(b)
	trace := ingestTrace(sc)
	for _, bc := range []struct {
		name    string
		policy  Policy
		counter string // the path every op must take
	}{
		{"cheap", Policy{RelChange: 1e9}, "serve.replans.cheap"},
		{"delta", Policy{RelChange: 0.2, DeltaReplan: true}, "serve.replans.delta"},
		{"full", Policy{RelChange: 0.2}, "serve.replans.full"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var rt *Runtime
			var probes, taken, from int64
			next := len(trace)
			tally := func() {
				reg := rt.Metrics()
				probes += reg.Counter("planner.frontier.misses").Value() - from
				taken += reg.Counter(bc.counter).Value()
				rt.Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if next == len(trace) {
					b.StopTimer()
					if rt != nil {
						tally()
					}
					var err error
					if rt, err = New(Config{Scenario: sc, Policy: bc.policy, Frontier: true}); err != nil {
						b.Fatal(err)
					}
					from, next = rt.Metrics().Counter("planner.frontier.misses").Value(), 0
					b.StartTimer()
				}
				if _, err := rt.Ingest(trace[next]); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.StopTimer()
			tally()
			if taken != int64(b.N) {
				b.Fatalf("%d of %d samples took the %s path", taken, b.N, bc.counter)
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
	}
}

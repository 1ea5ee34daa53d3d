package surgery

import (
	"math/rand"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/workload"
)

// randomValidPlan draws a uniformly random structurally valid plan.
func randomValidPlan(m *dnn.Model, rng *rand.Rand) Plan {
	n := m.NumUnits()
	p := rng.Intn(n + 1)
	var exits []int
	for _, c := range m.ExitCandidates() {
		if c < n && rng.Float64() < 0.4 {
			exits = append(exits, c)
		}
	}
	return Plan{Model: m, Exits: exits, Theta: rng.Float64() * 0.95, Partition: p}
}

// TestOptimizeDominatesRandomPlans is the core optimizer property: no
// random valid plan may beat the optimizer's expected latency in the same
// environment (unconstrained case; theta restricted to the optimizer's
// grid would make it exactly optimal, so random thetas are allowed only
// for the random plans — the optimizer must still win because extra theta
// resolution cannot beat the best (exit set, partition) at grid thetas by
// more than the evaluation is convex-ish... so we compare against random
// plans evaluated with grid thetas).
func TestOptimizeDominatesRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	devs := hardware.Devices()
	srvs := hardware.Servers()
	models := dnn.Zoo()
	grid := thetaGrid
	for trial := 0; trial < 60; trial++ {
		m := models[rng.Intn(len(models))]
		env := Env{
			Device:         devs[1+rng.Intn(len(devs)-1)], // skip MCU (memory)
			Server:         srvs[rng.Intn(len(srvs))],
			ComputeShare:   0.1 + rng.Float64()*0.9,
			UplinkBps:      netmodel.Mbps(0.5 + rng.Float64()*80),
			BandwidthShare: 0.1 + rng.Float64()*0.9,
			RTT:            rng.Float64() * 0.01,
			Difficulty:     workload.DifficultyKind(rng.Intn(4)),
		}
		_, best, err := Optimize(m, env, Options{FixedPartition: FreePartition})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for probe := 0; probe < 15; probe++ {
			plan := randomValidPlan(m, rng)
			plan.Theta = grid[rng.Intn(len(grid))]
			ev, err := Evaluate(plan, env)
			if err != nil {
				t.Fatalf("trial %d probe %d: %v", trial, probe, err)
			}
			if ev.Latency < best.Latency*(1-1e-9) {
				t.Fatalf("trial %d: random plan %v beat optimizer: %.6g < %.6g",
					trial, plan, ev.Latency, best.Latency)
			}
		}
	}
}

// TestEvalCoefficientsConsistent verifies the latency decomposition
// Latency == Fixed + Server/f + Tx/b exactly, for random plans and envs.
func TestEvalCoefficientsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	m := dnn.ResNet50()
	dev, _ := hardware.ByName("phone-soc")
	srv, _ := hardware.ByName("edge-cpu-16c")
	for trial := 0; trial < 200; trial++ {
		f := 0.05 + rng.Float64()*0.95
		b := 0.05 + rng.Float64()*0.95
		env := Env{
			Device: dev, Server: srv,
			ComputeShare: f, UplinkBps: netmodel.Mbps(10), BandwidthShare: b,
			RTT: 0.003, Difficulty: workload.UniformDifficulty,
		}
		plan := randomValidPlan(m, rng)
		ev, err := Evaluate(plan, env)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.FixedSec + ev.ServerSec/f + ev.TxSec/b
		diff := ev.Latency - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+want) {
			t.Fatalf("trial %d: decomposition broken: %.9g vs %.9g", trial, ev.Latency, want)
		}
		// Probability mass must be conserved.
		var sum float64
		for _, p := range ev.ExitProbs {
			if p < -1e-12 {
				t.Fatalf("negative exit probability %g", p)
			}
			sum += p
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("exit probabilities sum to %g", sum)
		}
	}
}

// TestTxFactorMonotone verifies compression never hurts and only affects
// crossing plans.
func TestTxFactorMonotone(t *testing.T) {
	m := dnn.VGG16()
	dev, _ := hardware.ByName("rpi4")
	srv, _ := hardware.ByName("edge-gpu-t4")
	base := Env{
		Device: dev, Server: srv,
		ComputeShare: 1, UplinkBps: netmodel.Mbps(4), BandwidthShare: 1,
		RTT: 0.004, Difficulty: workload.EasyBiased,
	}
	offload := Plan{Model: m, Partition: 0}
	local := LocalOnly(m)
	prev := -1.0
	for _, factor := range []float64{1, 0.5, 0.25, 0.125} {
		env := base
		env.TxFactor = factor
		ev, err := Evaluate(offload, env)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && ev.Latency > prev+1e-12 {
			t.Errorf("compression %g increased latency: %g > %g", factor, ev.Latency, prev)
		}
		prev = ev.Latency

		lv, err := Evaluate(local, env)
		if err != nil {
			t.Fatal(err)
		}
		lv0, err := Evaluate(local, base)
		if err != nil {
			t.Fatal(err)
		}
		if lv.Latency != lv0.Latency {
			t.Errorf("compression affected a local plan: %g vs %g", lv.Latency, lv0.Latency)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

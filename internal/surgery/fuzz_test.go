package surgery

import (
	"math"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// fuzzUnit maps an arbitrary fuzzed float into (0, 1], folding NaN/±Inf to
// 1, so shares always lie in the optimizer's documented domain.
func fuzzUnit(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
		return 1
	}
	if v < 0 {
		v = -v
	}
	if v > 1 {
		v = math.Mod(v, 1)
		if v == 0 {
			return 1
		}
	}
	return v
}

// fuzzRange maps an arbitrary fuzzed float into [lo, hi].
func fuzzRange(v, lo, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return lo
	}
	if v < 0 {
		v = -v
	}
	return lo + math.Mod(v, hi-lo)
}

// FuzzSurgeryOptimize drives the surgery optimizer across arbitrary (but
// domain-valid) environments and checks its output invariants: no panic,
// a structurally valid plan whose reported evaluation is the reference
// evaluator's to the last bit, finite positive latency at the environment's
// shares, accuracy within [0, 1], and the accuracy floor honoured.
func FuzzSurgeryOptimize(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.5, 0.5, 40e6, 0.004, 2.0, 1.0, 0.7, false)
	f.Add(uint8(1), uint8(2), 1.0, 1.0, 1e6, 0.02, 0.0, 0.25, 0.0, true)
	f.Add(uint8(2), uint8(1), 0.1, 0.9, 500e6, 0.0, 10.0, 4.0, 0.9, false)
	f.Fuzz(func(t *testing.T, modelSel, envSel uint8, cs, bs, uplink, rtt, rate, txf, minAcc float64, noExits bool) {
		models := []func() *dnn.Model{dnn.AlexNet, dnn.MobileNetV2, dnn.ResNet18, dnn.SqueezeNet}
		m := models[int(modelSel)%len(models)]()
		devices := []string{"rpi4", "phone-soc", "jetson-nano"}
		servers := []string{"edge-gpu-t4", "edge-cpu-16c", ""} // "" = device-only
		dev, err := hardware.ByName(devices[int(envSel)%len(devices)])
		if err != nil {
			t.Fatal(err)
		}
		env := Env{
			Device:     dev,
			Difficulty: workload.DifficultyKind(int(envSel) % 4),
			Rate:       fuzzRange(rate, 0, 30),
			TxFactor:   fuzzRange(txf, 0.05, 4),
		}
		if srv := servers[int(envSel/3)%len(servers)]; srv != "" {
			p, err := hardware.ByName(srv)
			if err != nil {
				t.Fatal(err)
			}
			env.Server = p
			env.ComputeShare = fuzzUnit(cs)
			env.BandwidthShare = fuzzUnit(bs)
			env.UplinkBps = fuzzRange(uplink, 1e3, 1e10)
			env.RTT = fuzzRange(rtt, 0, 0.5)
		}
		opt := Options{
			MinAccuracy:    fuzzRange(minAcc, 0, 0.95),
			NoExits:        noExits,
			FixedPartition: FreePartition,
		}
		plan, ev, err := Optimize(m, env, opt)
		if err != nil {
			return // infeasible environments are a legitimate outcome
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("optimizer returned invalid plan: %v (env %+v)", err, env)
		}
		if want, err := Evaluate(plan, env); err != nil {
			t.Fatalf("optimizer's plan %v does not evaluate: %v (env %+v)", plan, err, env)
		} else if d := evalDiff(ev, want); d != "" {
			t.Fatalf("kernel and reference evaluator disagree on plan %v: %s (env %+v)", plan, d, env)
		}
		cShare, bShare := env.ComputeShare, env.BandwidthShare
		if env.Server == nil {
			cShare, bShare = 1, 1
		}
		lat := ev.LatencyAt(cShare, bShare)
		if math.IsNaN(lat) || math.IsInf(lat, 0) || lat <= 0 {
			t.Fatalf("degenerate latency %g for plan %+v (env %+v)", lat, plan, env)
		}
		if ev.Accuracy < 0 || ev.Accuracy > 1+1e-9 {
			t.Fatalf("accuracy %g outside [0, 1]", ev.Accuracy)
		}
		if opt.MinAccuracy > 0 && ev.Accuracy+1e-9 < opt.MinAccuracy {
			t.Fatalf("accuracy %g below floor %g", ev.Accuracy, opt.MinAccuracy)
		}
	})
}

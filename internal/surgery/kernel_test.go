package surgery

import (
	"fmt"
	"math"
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/workload"
)

// evalDiff names the first field in which two evaluations differ bit for bit
// (ExitProbs element-wise), or returns "" when they are the same.
func evalDiff(got, want Eval) string {
	type field struct {
		name      string
		got, want float64
	}
	fields := []field{
		{"Latency", got.Latency, want.Latency},
		{"Accuracy", got.Accuracy, want.Accuracy},
		{"FixedSec", got.FixedSec, want.FixedSec},
		{"ServerSec", got.ServerSec, want.ServerSec},
		{"TxSec", got.TxSec, want.TxSec},
		{"CrossProb", got.CrossProb, want.CrossProb},
		{"DeviceSec", got.DeviceSec, want.DeviceSec},
	}
	if len(got.ExitProbs) != len(want.ExitProbs) {
		return fmt.Sprintf("ExitProbs has %d elements, want %d", len(got.ExitProbs), len(want.ExitProbs))
	}
	for i := range got.ExitProbs {
		fields = append(fields, field{fmt.Sprintf("ExitProbs[%d]", i), got.ExitProbs[i], want.ExitProbs[i]})
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s = %x (%g), want %x (%g)", f.name, math.Float64bits(f.got), f.got, math.Float64bits(f.want), f.want)
		}
	}
	return ""
}

// wantOptimizeError is the text Optimize must fail with on a valid
// environment. The joint planner wraps these messages and the golden digests
// hash them, so they are part of the contract.
func wantOptimizeError(m *dnn.Model, env Env, opt Options) string {
	if len(partitionCandidates(m, env, opt)) == 0 {
		return fmt.Sprintf("surgery: no feasible partition for %s on %s (memory)", m.Name, env.Device.Name)
	}
	return fmt.Sprintf("surgery: no plan meets accuracy %.3f (rate %.3g/s) for %s", opt.MinAccuracy, env.Rate, m.Name)
}

// TestKernelMatchesEvaluate holds the optimizer's kernel — whose evaluation
// reads precomputed arrays — to the reference evaluator, which walks the plan
// through the cost model from scratch: across the zoo, every device class,
// GPU / CPU / no server, the four difficulty kinds and each constraint kind, at
// the share grid's corners, interior grid points and an off-grid pair, the
// Eval Optimize reports is Evaluate(plan, env) to the last bit. Failures must
// carry exactly the text they always have.
func TestKernelMatchesEvaluate(t *testing.T) {
	grid := NewShareGrid(0)
	lo := grid.Value(grid.Levels() - 1)
	shares := [][2]float64{
		{1, 1}, {1, lo}, {lo, 1}, {lo, lo}, // corners
		{grid.Value(7), grid.Value(19)}, {grid.Value(40), grid.Value(3)}, // interior
		{0.37, 0.61}, // off the grid
	}
	options := []struct {
		name string
		opt  func(m *dnn.Model) Options
	}{
		{"free", func(*dnn.Model) Options { return Options{FixedPartition: FreePartition} }},
		{"min-accuracy", func(*dnn.Model) Options { return Options{FixedPartition: FreePartition, MinAccuracy: 0.7} }},
		{"no-exits", func(*dnn.Model) Options { return Options{FixedPartition: FreePartition, NoExits: true} }},
		{"fixed-partition", func(m *dnn.Model) Options { return Options{FixedPartition: m.NumUnits() / 2} }},
	}
	zoo := dnn.Zoo()
	if testing.Short() {
		zoo = zoo[:3]
	}
	solved, failed := 0, 0
	for _, m := range zoo {
		for _, devName := range []string{"rpi4", "phone-soc", "jetson-nano", "mcu-m7"} {
			dev, err := hardware.ByName(devName)
			if err != nil {
				t.Fatal(err)
			}
			for _, srvName := range []string{"edge-gpu-t4", "edge-cpu-16c", ""} {
				for kind := workload.DifficultyKind(0); kind < 4; kind++ {
					for _, o := range options {
						opt := o.opt(m)
						points := shares
						env := Env{Device: dev, Difficulty: kind, Rate: 2, TxFactor: 0.5}
						if srvName == "" {
							points = shares[:1] // no server, no shares
						} else {
							if env.Server, err = hardware.ByName(srvName); err != nil {
								t.Fatal(err)
							}
							env.UplinkBps, env.RTT = 30e6, 0.005
							if opt.MinAccuracy > 0 {
								points = [][2]float64{shares[0], shares[3], shares[4], shares[6]} // the bucketed DP is slow
							}
						}
						for _, s := range points {
							if env.Server != nil {
								env.ComputeShare, env.BandwidthShare = s[0], s[1]
							}
							where := fmt.Sprintf("%s on %s / %q, %v, %s, shares %v", m.Name, devName, srvName, kind, o.name, s)
							plan, ev, err := Optimize(m, env, opt)
							if err != nil {
								failed++
								if want := wantOptimizeError(m, env, opt); err.Error() != want {
									t.Fatalf("%s: error %q, want %q", where, err, want)
								}
								continue
							}
							solved++
							want, err := Evaluate(plan, env)
							if err != nil {
								t.Fatalf("%s: optimizer's plan %v does not evaluate: %v", where, plan, err)
							}
							if d := evalDiff(ev, want); d != "" {
								t.Fatalf("%s: plan %v: kernel and reference evaluator disagree: %s", where, plan, d)
							}
						}
					}
				}
			}
		}
	}
	if solved < 2*failed || failed == 0 {
		t.Fatalf("%d problems solved, %d infeasible: the corpus is lopsided", solved, failed)
	}
}

// TestOptimizeErrorTexts pins the two failure messages literally.
func TestOptimizeErrorTexts(t *testing.T) {
	mcu, err := hardware.ByName("mcu-m7")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, 20)
	env.Rate = 2
	for _, tc := range []struct {
		name string
		m    *dnn.Model
		env  Env
		opt  Options
		want string
	}{
		{"memory", dnn.VGG16(), Env{Device: mcu}, Options{FixedPartition: FreePartition},
			"surgery: no feasible partition for vgg16 on mcu-m7 (memory)"},
		{"accuracy", dnn.ResNet18(), env, Options{FixedPartition: FreePartition, MinAccuracy: 0.9999},
			"surgery: no plan meets accuracy 1.000 (rate 2/s) for resnet18"},
	} {
		if _, _, err := Optimize(tc.m, tc.env, tc.opt); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// Microbenchmarks of the surgery kernels: the optimizer (free and
// accuracy-constrained), a filled frontier-table lookup and one plan
// evaluation, all on ResNet34.

package surgery_test

import (
	"testing"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

func benchEnv(b *testing.B) surgery.Env {
	b.Helper()
	dev, err := hardware.ByName("rpi4")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := hardware.ByName("edge-gpu-t4")
	if err != nil {
		b.Fatal(err)
	}
	return surgery.Env{
		Device: dev, Server: srv,
		ComputeShare: 0.5, UplinkBps: netmodel.Mbps(25), BandwidthShare: 0.5,
		RTT: 0.004, Difficulty: workload.EasyBiased,
	}
}

// BenchmarkSurgeryOptimize measures one full per-user surgery optimization
// (the inner kernel of the planner's surgery step) on ResNet34, the model
// with the most exit candidates.
func BenchmarkSurgeryOptimize(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surgery.Optimize(m, env, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurgeryOptimizeConstrained adds the accuracy-constrained DP.
func BenchmarkSurgeryOptimizeConstrained(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition, MinAccuracy: 0.72}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := surgery.Optimize(m, env, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontierLookup measures one lookup of a filled frontier-table
// cell — what the planner's hot loop pays where BenchmarkSurgeryOptimize is
// the cost of filling one. Table construction happens before the timer, as
// it does in production (once per scenario, amortized over every lookup).
func BenchmarkFrontierLookup(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	opt := surgery.Options{FixedPartition: surgery.FreePartition}
	key := surgery.KeyOf(m, env, opt)
	set := surgery.NewFrontierSet(surgery.BuildOptions{Surgery: opt})
	if err := set.Build(key); err != nil {
		b.Fatal(err)
	}
	table := set.Get(key)
	grid := surgery.NewShareGrid(0)
	probe := func(i int) (float64, float64, float64) {
		return grid.Value(i % grid.Levels()), grid.Value((i * 7) % grid.Levels()), env.UplinkBps
	}
	// A cell fills on its first lookup; the probes cycle through Levels
	// cells, so one pass fills every cell the timed loop reads.
	for i := 0; i < grid.Levels(); i++ {
		if _, _, _, err := table.Lookup(probe(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan, _, known, _ := table.Lookup(probe(i)); !known || plan.Model == nil {
			b.Fatal("empty frontier lookup")
		}
	}
}

// BenchmarkSurgeryEvaluate measures a single plan evaluation.
func BenchmarkSurgeryEvaluate(b *testing.B) {
	env := benchEnv(b)
	m := dnn.ResNet34()
	cand := m.ExitCandidates()
	plan := surgery.Plan{Model: m, Exits: cand[2:6], Theta: 0.2, Partition: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := surgery.Evaluate(plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

package sim

import (
	"math"
	"testing"

	"edgesurgeon/internal/netmodel"
)

// BenchmarkEngineEvents measures raw event-loop throughput.
func BenchmarkEngineEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var eng Engine
		var count int
		var tick func()
		tick = func() {
			count++
			if count < 10000 {
				eng.After(0.001, tick)
			}
		}
		eng.At(0, tick)
		eng.Run()
		if count != 10000 {
			b.Fatal("event count")
		}
	}
	b.ReportMetric(10000, "events/op")
}

// BenchmarkPSStationChurn measures processor-sharing reschedule cost under
// steady arrivals.
func BenchmarkPSStationChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var eng Engine
		ps := NewPSStation(&eng, "ps")
		served := 0
		done := func(_, _ float64) { served++ }
		for j := 0; j < 1000; j++ {
			at := float64(j) * 0.01
			eng.At(at, func() { ps.Submit(0.02, done) })
		}
		eng.Run()
		if served != 1000 {
			b.Fatal("jobs lost")
		}
	}
}

// txSink keeps BenchmarkTxStage's calls from being optimized away.
var txSink float64

// BenchmarkTxStage measures rate-trace integration of a fault-free uplink
// transfer across a fading link.
func BenchmarkTxStage(b *testing.B) {
	link, err := netmodel.NewFading("wlan", netmodel.FadingConfig{
		States: []float64{netmodel.Mbps(2), netmodel.Mbps(40)}, MeanDwell: 2,
		Horizon: 3600, RTT: 0.004, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txSink, _ = txStage(nil, 0, link, 600_000, float64(i%3000), 0.5, math.Inf(1))
	}
}

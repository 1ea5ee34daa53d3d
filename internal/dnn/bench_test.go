package dnn

import "testing"

// BenchmarkZooBuild measures constructing the full model zoo (layer-graph
// assembly plus validation).
func BenchmarkZooBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Zoo()) != 8 {
			b.Fatal("zoo size")
		}
	}
}

// BenchmarkPrefixFLOPs measures the cached prefix-cost lookups the surgery
// DP leans on.
func BenchmarkPrefixFLOPs(b *testing.B) {
	m := ResNet50()
	n := m.NumUnits()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += m.PrefixFLOPs(i % (n + 1))
	}
	_ = sink
}

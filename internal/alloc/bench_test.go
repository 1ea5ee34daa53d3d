package alloc_test

import (
	"testing"

	"edgesurgeon/internal/alloc"
)

// BenchmarkAllocDeadlineAware measures the per-server allocation kernel at
// a realistic fan-in of 32 users.
func BenchmarkAllocDeadlineAware(b *testing.B) {
	demands := make([]alloc.Demand, 32)
	for i := range demands {
		demands[i] = alloc.Demand{
			Fixed:    0.01 + float64(i%5)*0.002,
			Server:   0.002 + float64(i%7)*0.001,
			Tx:       0.001 + float64(i%3)*0.002,
			Deadline: 0.3,
			Rate:     2,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc.DeadlineAware(demands)
	}
}

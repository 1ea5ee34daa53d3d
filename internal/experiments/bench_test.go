// BenchmarkExperiments regenerates every evaluation artifact, one
// sub-benchmark per experiment spec. Regenerate one figure's data:
//
//	go test -bench='BenchmarkExperiments/E4$' -benchtime=1x ./internal/experiments

package experiments_test

import (
	"testing"

	"edgesurgeon/internal/experiments"
)

// BenchmarkExperiments runs each experiment once per iteration, its
// CI-sized variant where it has one (`experiments -quick`); the
// regenerated tables are the artifact, the benchmark time is the cost of
// regenerating them.
func BenchmarkExperiments(b *testing.B) {
	for _, s := range experiments.Specs {
		b.Run(s.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Report(true); err != nil {
					b.Fatalf("%s: %v", s.ID, err)
				}
			}
		})
	}
}

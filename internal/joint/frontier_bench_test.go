package joint

import (
	"testing"

	"edgesurgeon/internal/surgery"
)

// BenchmarkFrontierPlanArms contrasts the two E23 planning arms on one
// sharded population: tables private to each plan (no set supplied) and a
// shared set, which keeps the cells earlier iterations filled. Compare ns/op
// across the sub-benchmarks to see what reuse across plans saves.
func BenchmarkFrontierPlanArms(b *testing.B) {
	const (
		nUsers         = 192
		uplinkMbps     = 25
		shardThreshold = 48
	)
	sc := testScenario(b, nUsers, uplinkMbps)
	base := Options{ShardThreshold: shardThreshold}

	set, err := BuildFrontierSet(sc, base, surgery.BuildOptions{Surgery: base.Surgery})
	if err != nil {
		b.Fatal(err)
	}

	arms := []struct {
		name string
		opt  Options
	}{
		{"private", base},
		{"shared", func() Options { o := base; o.Frontiers = set; return o }()},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			p := &Planner{Opt: arm.opt}
			b.ReportAllocs()
			b.ResetTimer()
			var last *Plan
			for i := 0; i < b.N; i++ {
				plan, err := p.Plan(sc)
				if err != nil {
					b.Fatal(err)
				}
				last = plan
			}
			b.StopTimer()
			if arm.opt.Frontiers != nil && last != nil {
				lookups := last.FrontierHits + last.FrontierMisses
				if lookups == 0 {
					b.Fatal("frontier arm answered no surgery queries from the tables")
				}
				b.ReportMetric(100*float64(last.FrontierHits)/float64(lookups), "hit%")
			}
		})
	}
}

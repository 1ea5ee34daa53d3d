package experiments

import (
	"edgesurgeon/internal/joint"
)

// e19SaturationThroughput regenerates the capacity table: the maximum
// per-user arrival rate each strategy sustains while keeping deadline
// satisfaction at or above 90%, found by bisection over the rate. The
// strategies bisect concurrently, each probe a one-arm grid.
func e19SaturationThroughput(r *Report) error {
	const target = 0.90
	g := grid[float64]{scenario: func(rate float64) *joint.Scenario { return mixedScenario(12, rate, 0.3, 100) }}
	measure := func(s joint.Strategy, rate float64) (float64, error) {
		o, err := g.probe(rate, s)
		if err != nil {
			return 0, err
		}
		return o.DeadlineRate(), nil
	}
	t := r.table("Sustainable throughput",
		"strategy", "max-rate(req/s/user)", "satisfaction-at-max", "normalized-vs-joint")
	type row struct{ rate, sat float64 }
	strategies := strategiesUnderTest()
	rows := make([]row, len(strategies))
	err := forEachArm(len(strategies), func(si int) error {
		s := strategies[si]
		// Establish an upper bracket.
		lo, hi := 0.0, 1.0
		for i := 0; i < 8; i++ {
			dr, err := measure(s, hi)
			if err != nil {
				return err
			}
			if dr < target {
				break
			}
			lo = hi
			hi *= 2
		}
		if lo == 0 {
			// Cannot sustain even the smallest probe rate.
			dr, err := measure(s, 0.25)
			if err != nil {
				return err
			}
			if dr >= target {
				lo = 0.25
			}
		}
		// Bisect between lo (sustained) and hi (collapsed).
		for i := 0; i < 7 && hi-lo > 0.05*hi; i++ {
			mid := (lo + hi) / 2
			dr, err := measure(s, mid)
			if err != nil {
				return err
			}
			if dr >= target {
				lo = mid
			} else {
				hi = mid
			}
		}
		sat := 0.0
		if lo > 0 {
			var err error
			sat, err = measure(s, lo)
			if err != nil {
				return err
			}
		}
		rows[si] = row{lo, sat}
		return nil
	})
	if err != nil {
		return err
	}
	jointMax := rows[0].rate // strategy 0 is joint
	for si, rw := range rows {
		norm := 0.0
		if jointMax > 0 {
			norm = rw.rate / jointMax
		}
		t.AddRow(strategies[si].Name(), rw.rate, rw.sat, norm)
	}
	bestBase := 0.0
	for _, rw := range rows[1:] {
		bestBase = max(bestBase, rw.rate)
	}
	if jointMax > bestBase {
		r.note("joint sustains %.2f req/s/user, %.1fx the best baseline (%.2f)", jointMax, jointMax/max(bestBase, 1e-9), bestBase)
	} else {
		r.note("WARNING: a baseline sustained more throughput than joint")
	}
	return nil
}

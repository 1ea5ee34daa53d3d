package experiments

import (
	"fmt"
	"reflect"
	"runtime"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/surgery"
)

// e24Frontier measures what a shared table set saves across replans on the
// planner-scale population (e23Scenario). For each size it times four
// things — registering the set (no optimizer runs: tables fill on first
// lookup), a plan with no set supplied, a first plan on the set (which fills
// the cells it reads) and a replan on the set the first plan filled — and
// cross-checks that the set is pure speedup: the replan must be exactly the
// plan made with no set (metric keys keep their "build" and "legacy" names
// for the dashboards that read them).
func e24Frontier(r *Report, sizes []int, nServers, shardThreshold, paritySize int) error {
	r.Title = fmt.Sprintf("Pareto-frontier surgery tables shared across replans (%d servers)", nServers)
	t := r.table("Registration, first plan and replan on a shared table set vs planning with no set",
		"users", "tables", "fills", "register(s)", "no set(s)", "first(s)", "replan(s)", "speedup", "hit(%)")

	var usersMax int
	var buildSecLargest, firstSecLargest, frontierSecLargest, legacySecLargest, speedupLargest, hitRateLargest float64
	parityOK := 1.0
	for _, n := range sizes {
		sc := e23Scenario(n, nServers)
		opt := joint.Options{ShardThreshold: shardThreshold}

		set, buildSec, err := timed(func() (*surgery.FrontierSet, error) {
			return joint.BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
		})
		if err != nil {
			return fmt.Errorf("E24 build n=%d: %w", n, err)
		}
		cPlan, legacySec, err := timed(func() (*joint.Plan, error) { return (&joint.Planner{Opt: opt}).Plan(sc) })
		if err != nil {
			return fmt.Errorf("E24 no set n=%d: %w", n, err)
		}

		fopt := opt
		fopt.Frontiers = set
		planner := &joint.Planner{Opt: fopt}
		_, firstSec, err := timed(func() (*joint.Plan, error) { return planner.Plan(sc) })
		if err != nil {
			return fmt.Errorf("E24 first plan n=%d: %w", n, err)
		}
		fills := set.Probes()
		fPlan, frontierSec, err := timed(func() (*joint.Plan, error) { return planner.Plan(sc) })
		if err != nil {
			return fmt.Errorf("E24 replan n=%d: %w", n, err)
		}

		hitRate := 0.0
		if lookups := fPlan.FrontierHits + fPlan.FrontierMisses; lookups > 0 {
			hitRate = 100 * float64(fPlan.FrontierHits) / float64(lookups)
		}
		speedup := legacySec / frontierSec
		t.AddRow(n, set.Len(), fills, fmt.Sprintf("%.4f", buildSec),
			fmt.Sprintf("%.2f", legacySec), fmt.Sprintf("%.2f", firstSec), fmt.Sprintf("%.3f", frontierSec),
			fmt.Sprintf("%.1fx", speedup), fmt.Sprintf("%.1f", hitRate))

		if n == paritySize {
			if !reflect.DeepEqual(fPlan.Decisions, cPlan.Decisions) || fPlan.Objective != cPlan.Objective {
				parityOK = 0
				r.note("WARNING: the replan on the shared set diverged from the plan without one at n=%d (objective %.6f vs %.6f)",
					n, fPlan.Objective, cPlan.Objective)
			} else {
				r.note("parity: the replan on the shared set at n=%d is bit-identical to the plan with no set supplied", n)
			}
		}
		if n > usersMax {
			usersMax = n
			buildSecLargest, firstSecLargest, frontierSecLargest, legacySecLargest = buildSec, firstSec, frontierSec, legacySec
			speedupLargest, hitRateLargest = speedup, hitRate
		}
	}
	r.Metrics["cores"] = float64(runtime.GOMAXPROCS(0))
	r.Metrics["users_max"] = float64(usersMax)
	r.Metrics["build_sec"] = buildSecLargest
	r.Metrics["legacy_wallclock_sec"] = legacySecLargest
	r.Metrics["frontier_wallclock_sec"] = frontierSecLargest
	r.Metrics["speedup_vs_legacy"] = speedupLargest
	r.Metrics["hit_rate_pct"] = hitRateLargest
	r.Metrics["parity_ok"] = parityOK
	r.note("at the largest size a replan on the filled set took %.3fs vs %.2fs with no set (%.1fx); registering the set took %.4fs and the first plan on it %.2fs",
		frontierSecLargest, legacySecLargest, speedupLargest, buildSecLargest, firstSecLargest)
	return nil
}

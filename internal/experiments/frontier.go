package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/stats"
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
func e24Frontier(sizes []int, nServers, shardThreshold, paritySize int) (*Report, error) {
	r := &Report{
		ID: "E24", Artifact: "Frontier table study",
		Title: fmt.Sprintf("Pareto-frontier surgery tables shared across replans (%d servers)", nServers),
	}
	t := stats.NewTable("Registration, first plan and replan on a shared table set vs planning with no set",
		"users", "tables", "fills", "register(s)", "no set(s)", "first(s)", "replan(s)", "speedup", "hit(%)")

	var usersMax int
	var buildSecLargest, firstSecLargest, frontierSecLargest, legacySecLargest, speedupLargest, hitRateLargest float64
	parityOK := 1.0
	for _, n := range sizes {
		sc := e23Scenario(n, nServers)
		opt := joint.Options{ShardThreshold: shardThreshold}

		t0 := time.Now()
		set, err := joint.BuildFrontierSet(sc, opt, surgery.BuildOptions{Surgery: opt.Surgery})
		if err != nil {
			return nil, fmt.Errorf("E24 build n=%d: %w", n, err)
		}
		buildSec := time.Since(t0).Seconds()

		t1 := time.Now()
		cPlan, err := (&joint.Planner{Opt: opt}).Plan(sc)
		if err != nil {
			return nil, fmt.Errorf("E24 no set n=%d: %w", n, err)
		}
		legacySec := time.Since(t1).Seconds()

		fopt := opt
		fopt.Frontiers = set
		planner := &joint.Planner{Opt: fopt}
		t2 := time.Now()
		if _, err := planner.Plan(sc); err != nil {
			return nil, fmt.Errorf("E24 first plan n=%d: %w", n, err)
		}
		firstSec := time.Since(t2).Seconds()
		fills := set.Probes()

		t3 := time.Now()
		fPlan, err := planner.Plan(sc)
		if err != nil {
			return nil, fmt.Errorf("E24 replan n=%d: %w", n, err)
		}
		frontierSec := time.Since(t3).Seconds()

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
	r.Tables = append(r.Tables, t)
	r.metric("cores", float64(runtime.GOMAXPROCS(0)))
	r.metric("users_max", float64(usersMax))
	r.metric("build_sec", buildSecLargest)
	r.metric("legacy_wallclock_sec", legacySecLargest)
	r.metric("frontier_wallclock_sec", frontierSecLargest)
	r.metric("speedup_vs_legacy", speedupLargest)
	r.metric("hit_rate_pct", hitRateLargest)
	r.metric("parity_ok", parityOK)
	r.note("at the largest size a replan on the filled set took %.3fs vs %.2fs with no set (%.1fx); registering the set took %.4fs and the first plan on it %.2fs",
		frontierSecLargest, legacySecLargest, speedupLargest, buildSecLargest, firstSecLargest)
	return r, nil
}

// E24FrontierStudy regenerates the frontier-table study at planner-scale
// sizes, with the plan-parity cross-check at the dual-arm size.
func E24FrontierStudy() (*Report, error) {
	return e24Frontier([]int{1000, 10000}, 8, 256, 1000)
}

// E24QuickFrontierStudy is the CI-sized variant behind `experiments
// -quick`: one small size with the parity check on, emitting every metric
// key the full run emits.
func E24QuickFrontierStudy() (*Report, error) {
	return e24Frontier([]int{256}, 4, 64, 256)
}

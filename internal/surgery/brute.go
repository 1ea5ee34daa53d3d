package surgery

import (
	"fmt"
	"math"

	"edgesurgeon/internal/dnn"
)

// BruteForce exhaustively searches all exit subsets, partition points and
// thresholds. Exponential in the number of exit candidates (capped at 16);
// it exists as the ground-truth reference for optimality-gap tests and
// experiment E11, not for production planning.
func BruteForce(m *dnn.Model, env Env, opt Options) (Plan, Eval, error) {
	if err := env.Validate(); err != nil {
		return Plan{}, Eval{}, err
	}
	n := m.NumUnits()
	var cand []int
	if !opt.NoExits {
		for _, c := range m.ExitCandidates() {
			if c < n {
				cand = append(cand, c)
			}
		}
	}
	if len(cand) > 16 {
		return Plan{}, Eval{}, fmt.Errorf("surgery: brute force over %d candidates is intractable", len(cand))
	}
	thetas := thetaGrid
	if opt.NoExits {
		thetas = thetas[:1]
	}
	parts := partitionCandidates(m, env, opt)

	best := Plan{}
	bestEval := Eval{Latency: math.Inf(1)}
	found := false
	for _, p := range parts {
		for mask := 0; mask < 1<<len(cand); mask++ {
			var exits []int
			for i, c := range cand {
				if mask&(1<<i) != 0 {
					exits = append(exits, c)
				}
			}
			for _, theta := range thetas {
				if mask == 0 && theta != thetas[0] {
					break // theta is irrelevant without exits
				}
				plan := Plan{Model: m, Exits: exits, Theta: theta, Partition: p}
				ev, err := Evaluate(plan, env)
				if err != nil {
					return Plan{}, Eval{}, err
				}
				if opt.MinAccuracy > 0 && ev.Accuracy+1e-12 < opt.MinAccuracy {
					continue
				}
				if env.Rate > 0 && env.Rate*ev.DeviceSec > DeviceStabilityRho {
					continue
				}
				if ev.Latency < bestEval.Latency {
					best, bestEval, found = plan, ev, true
				}
			}
		}
	}
	if !found {
		return Plan{}, Eval{}, fmt.Errorf("surgery: brute force found no plan meeting accuracy %.3f", opt.MinAccuracy)
	}
	return best, bestEval, nil
}

package experiments

import (
	"fmt"

	"edgesurgeon/internal/joint"
)

// e9PlannerScalability regenerates Figure 9: planner wall-clock runtime as
// the user count grows. Reassignment is disabled (its greedy pass is the
// only super-linear step); the block-coordinate core is what must scale.
func e9PlannerScalability(r *Report) error {
	t := r.table("Planner wall-clock time",
		"users", "runtime(ms)", "ms/user", "objective")
	counts := []int{10, 25, 50, 100, 250, 500, 1000}
	var first, last float64
	for _, n := range counts {
		sc := mixedScenario(n, 2, 0.4, 25)
		planner := &joint.Planner{Opt: joint.Options{
			MaxIters: 4, DisableReassignment: true,
		}}
		plan, sec, err := timed(func() (*joint.Plan, error) { return planner.Plan(sc) })
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		elapsed := sec * 1000
		perUser := elapsed / float64(n)
		t.AddRow(n, elapsed, perUser, plan.Objective)
		if n == counts[0] {
			first = perUser
		}
		last = perUser
	}
	ratio := last / first
	r.note("per-user planning cost changed %.2fx from N=%d to N=%d (1.0 = perfectly linear)",
		ratio, counts[0], counts[len(counts)-1])
	return nil
}

// e10Convergence regenerates Figure 10: the block-coordinate objective
// trajectory.
func e10Convergence(r *Report) error {
	// Scarce bandwidth and tight deadlines couple the two blocks: the best
	// surgery plan depends strongly on the shares and vice versa.
	sc := mixedScenario(16, 5, 0.25, 9)
	planner := &joint.Planner{Opt: joint.Options{MaxIters: 12, Epsilon: 1e-9}}
	plan, err := planner.Plan(sc)
	if err != nil {
		return err
	}
	t := r.table("Objective per half-step",
		"step", "phase", "objective", "improvement(%)")
	phase := func(i int) string {
		switch {
		case i == 0:
			return "surgery@equal-shares"
		case i == 1:
			return "+allocation"
		default:
			return fmt.Sprintf("round %d (reassign+surgery+alloc)", i-1)
		}
	}
	for i, obj := range plan.Trajectory {
		var imp float64
		if i > 0 {
			imp = 100 * (plan.Trajectory[i-1] - obj) / plan.Trajectory[i-1]
		}
		t.AddRow(i, phase(i), obj, imp)
	}
	totalDrop := 100 * (plan.Trajectory[0] - plan.Trajectory[len(plan.Trajectory)-1]) / plan.Trajectory[0]
	r.note("converged in %d rounds; objective reduction from the first surgery pass: %.1f%%",
		plan.Iterations, totalDrop)
	return nil
}

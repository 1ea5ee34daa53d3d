package joint

import (
	"math"
	"sort"
)

// This file holds the planner's structure-of-arrays view of the user
// population. The User struct is the configuration surface — readable,
// codec-friendly, one struct per user — but the planner's hot loops
// (objective sums, allocation demand assembly, reconciliation pressure
// accounting) touch only four derived scalars per user, and at 10^5–10^6
// users chasing them through 15-field structs (with the weight()/
// planningRate() defaulting branches re-evaluated on every read) dominates
// the bookkeeping cost and wrecks locality. userSoA resolves those scalars
// once, into contiguous flat arrays the hot paths index directly. Every
// array entry is bit-identical to what the corresponding accessor returns,
// so switching a loop from the struct to the array can never change planner
// output — the parallelism/differential suites pin that.
type userSoA struct {
	// weight is User.weight() resolved (<= 0 defaulted to 1).
	weight []float64
	// rate is User.planningRate() resolved (ProvisionRate when positive,
	// else Rate).
	rate []float64
	// deadline is User.Deadline verbatim (0 = none).
	deadline []float64
	// work is the initial-assignment load metric:
	// TotalFLOPs × max(planningRate, 0.01).
	work []float64
	// model is the user's model index into models — users sharing a model
	// instance share an index (the population-class structure the frontier
	// tables exploit).
	model []int32
	// models is the deduplicated model-instance table behind model.
	models []modelRef
}

// modelRef is one deduplicated model instance in the SoA table.
type modelRef struct {
	flops int64
}

// buildUserSoA flattens the scenario's per-user planning scalars. One pass,
// O(n); the result is immutable and safely shared across states (the pin
// pass, the cross-check) and goroutines.
func buildUserSoA(sc *Scenario) *userSoA {
	n := len(sc.Users)
	hot := &userSoA{
		weight:   make([]float64, n),
		rate:     make([]float64, n),
		deadline: make([]float64, n),
		work:     make([]float64, n),
		model:    make([]int32, n),
	}
	index := make(map[interface{}]int32, 8)
	for i := range sc.Users {
		u := &sc.Users[i]
		hot.weight[i] = u.weight()
		hot.rate[i] = u.planningRate()
		hot.deadline[i] = u.Deadline
		mi, ok := index[u.Model]
		if !ok {
			mi = int32(len(hot.models))
			hot.models = append(hot.models, modelRef{flops: u.Model.TotalFLOPs()})
			index[u.Model] = mi
		}
		hot.model[i] = mi
		hot.work[i] = float64(hot.models[mi].flops) * math.Max(hot.rate[i], 0.01)
	}
	return hot
}

// workOrder returns user indices by descending work, index tiebreak — the
// greedy initial assignment's acceptance order, which every per-server
// assignment list replays (seedGreedy, seedDecisions) so the allocation
// inputs are order-identical across all planning routes.
func workOrder(hot *userSoA) []int {
	order := make([]int, len(hot.work))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return hot.work[order[a]] > hot.work[order[b]] })
	return order
}

// objectiveNow computes the weighted expected-latency sum of the current
// decision set, in user-index order, from the SoA weights.
func (st *state) objectiveNow() float64 {
	var sum float64
	for i := range st.ds {
		sum += st.hot.weight[i] * st.ds[i].Latency()
	}
	return sum
}

// shardObjective sums the weighted latency of the users currently assigned
// to server s — the per-shard slice of the objective a single-shard replan
// converges on.
func (st *state) shardObjective(s int) float64 {
	return st.addShardObjective(0, s)
}

// addShardObjective continues the running sum with server s's users, in list
// order: a candidate move's two-shard objective is one float accumulated over
// the donor's terms and then the target's.
func (st *state) addShardObjective(sum float64, s int) float64 {
	for _, ui := range st.assigned[s] {
		sum += st.hot.weight[ui] * st.ds[ui].Latency()
	}
	return sum
}

// moveScratch is the reusable buffer set behind tryTargets' save/restore: the
// donor's assignment list and the share pairs of both touched shards'
// incumbents. tryTargets runs only on sequential orchestration code (the
// candidate scans), never concurrently on one state, so one arena per state
// suffices.
type moveScratch struct {
	from                 []int
	fromShares, toShares []float64
}

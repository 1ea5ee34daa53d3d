package joint

import (
	"math"
	"sort"
)

// This file implements the hierarchical sharded planner — the scale path
// behind Options.ShardThreshold. The monolithic block-coordinate loop is
// exact but super-linear: its exhaustive scan evaluates O(users × servers)
// candidate moves per round, each re-allocating the two shards it touches,
// which makes planning (not simulation) the bottleneck past a few thousand
// users. The sharded path exploits the same independence structure the
// sharded simulator does:
//
//  1. Users are clustered by server affinity (the planner's own greedy
//     initial assignment) into shards — one shard per server, plus a
//     singleton shard per provably local-only user, the simulator's
//     component decomposition.
//  2. Each server shard converges in place (state.converge, the loop a
//     delta replan runs warm on its dirty shards) against a provisional
//     capacity split: the shard's server at full capacity, shared only by
//     the shard's own users, nobody changing servers.
//  3. A small number of capacity-reconciliation rounds migrate users from
//     pressured shards (infeasible, or above-average compute demand) into
//     shards with slack, accepting only moves that strictly improve the
//     global objective, then re-polish every shard with one global
//     surgery + allocation pass. The loop stops when no move is accepted
//     and the objective improvement falls under Epsilon.
//
// When shards never contend — no reconciliation move improves anything and
// every shard's loop reaches an exact fixed point (the snapped share grid
// makes fixed points exact, see state.env) — the sharded plan is
// bit-identical to the monolithic one: the affinity clustering IS the
// monolithic initial assignment, each shard's surgery environment is
// server-local, and the shards' lists keep the monolithic per-server
// allocation input order. The differential tests pin this, plus a ≤1%
// objective gap on contended scenarios.

// reconcileCandidateBudget bounds the candidate moves a reconciliation
// round may evaluate. Below the budget every (user, target) pair is tried —
// the monolithic descent's own scan, so its coverage on differential test
// sizes; above it, each shard nominates only its topK worst
// contributors against the two least-loaded targets.
const reconcileCandidateBudget = 4096

// reconcileTopK is the per-shard candidate nomination floor in the
// budget-bounded regime: even the largest shards nominate at least this
// many movers.
const reconcileTopK = 4

// reconcileWorkBudget caps one budget-regime reconciliation round's total
// move-evaluation work, measured in user-slots (candidates × donor shard
// size — evaluating a move re-allocates the touched shards, which is linear
// in their sizes). A fixed work budget makes every round cost about the same
// wall-clock at any scale: mid-size scenarios with small shards nominate
// most of each donor shard, 100k-user shards fall back to the topK floor.
const reconcileWorkBudget = 1 << 19

// crossCheckUserLimit bounds the monolithic cross-check pass to
// verification-sized scenarios — the differential test corpus. Above it the
// cross-check would double planning cost for no contractual benefit: the
// sharded path's large-scale quality story is the measured E23 gap, not a
// per-plan guarantee.
const crossCheckUserLimit = 64

// reconcileMaxTargets is the per-candidate target-server count in the
// budget-bounded regime.
const reconcileMaxTargets = 2

// reconcileRounds bounds the capacity-reconciliation rounds at scale (the
// loop stops early once no migration is accepted and the objective
// improvement falls under Epsilon). Verification-sized scenarios run up to
// MaxIters rounds when that is larger — see settle.
const reconcileRounds = 6

// planSharded is the hierarchical planning entry point — a delta replan from
// a blank plan with every shard dirty. opt is the already-defaulted option
// set (see Planner.opts).
func (p *Planner) planSharded(sc *Scenario, opt Options) (*Plan, error) {
	hot := buildUserSoA(sc)
	assign, order := initialAssignment(sc, hot)

	// Local-only pre-pass: a user whose surgery optimum stays on-device
	// even at the most optimistic share (1.0 of its affinity server) never
	// offloads at any share the planner could allocate — lowering shares
	// only worsens crossing plans and leaves on-device plans untouched.
	// Such users become singleton shards with their optimal plan already in
	// hand, exactly the local components of the simulator's decomposition.
	pin, err := pinLocalUsers(sc, opt, hot, assign)
	if err != nil {
		return nil, err
	}
	st := newState(sc, opt, hot)
	// The pre-pass probed one surgery optimization per user; charge it before
	// any shard work so a budget below even that aborts here.
	st.spent = int64(len(sc.Users))
	if err := st.checkpoint(); err != nil {
		return nil, err
	}

	// Seed: a pinned user carries its local decision, everyone else starts
	// blank on its affinity server at the uniform split.
	ds := make([]Decision, len(sc.Users))
	shards := 0
	for ui := range ds {
		if pin[ui] != nil {
			ds[ui] = *pin[ui]
			shards++
		} else {
			ds[ui].Server = assign[ui]
		}
	}
	st.seedDecisions(ds, order)
	st.equalShares()

	iters := 0
	for s := range st.assigned {
		if len(st.assigned[s]) > 0 {
			shards++
		}
		n, err := st.converge(s, true)
		if err != nil {
			return nil, err
		}
		iters = max(iters, n)
	}
	return st.settle(nil, &Plan{PlannerName: p.Name(), Shards: shards, Iterations: iters})
}

// converge alternates surgery and re-allocation on server s's shard, in
// place, until the shard's objective slice stops improving (at most MaxIters
// rounds), then restores the best point it visited, so the probe-share
// floor's transient regressions can never leave the shard worse than that.
// Nobody changes servers and only this shard's users are touched: cost is
// O(rounds × shard size). A warm start (a delta replan's dirty shard, at the
// drifted uplink) compares its first round with the shares already
// installed; a cold one (the full sharded plan's blank seed) has nothing to
// compare with, so that round always runs and is the first point kept —
// descend's round 0. Returns the round count.
func (st *state) converge(s int, cold bool) (int, error) {
	users := st.assigned[s]
	if len(users) == 0 {
		st.allocServer(s) // clears the stale feasibility flag
		return 0, nil
	}
	var bestObj float64
	var bestFeas bool
	bestDs := make([]Decision, len(users))
	keep := func(obj float64) {
		bestObj, bestFeas = obj, st.srvFeasible[s]
		for i, ui := range users {
			bestDs[i] = st.ds[ui]
		}
	}
	prev := st.shardObjective(s)
	keep(prev)
	iters := 0
	for ; iters < st.opt.MaxIters; iters++ {
		// Charge the pass before running it and abort with no partial
		// effects beyond this shard (the caller discards the state on error).
		st.spent += int64(len(users))
		if err := st.checkpoint(); err != nil {
			return iters, err
		}
		if err := st.refresh(users); err != nil {
			return iters, err
		}
		st.allocServer(s)
		cur := st.shardObjective(s)
		first := cold && iters == 0
		if first || cur < bestObj {
			keep(cur)
		}
		if !first && st.opt.converged(prev, cur) {
			iters++
			break
		}
		prev = cur
	}
	for i, ui := range users {
		st.ds[ui] = bestDs[i]
	}
	st.srvFeasible[s] = bestFeas
	return iters, nil
}

// settle is the second half of both sharded routes — the full hierarchical
// plan (scope nil: every shard donates) and the delta replan (scope = the
// dirty mask) — run on a state whose shards have each converged in
// isolation: capacity reconciliation, the verification-size monolithic
// cross-check, and plan assembly. plan arrives carrying the route's name,
// shard counts and the deepest shard's round count.
func (st *state) settle(scope []bool, plan *Plan) (*Plan, error) {
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	st.recomputeFeasible()
	// The best-objective snapshot guarantees reconciliation can never
	// return a worse plan than the one it started from.
	best := st.snapshot()
	plan.Trajectory = []float64{best.obj}
	if err := st.reconcile(scope, &best, plan); err != nil {
		return nil, err
	}
	if mono := st.crossCheck(); mono != nil {
		plan.Trajectory = append(plan.Trajectory, mono.Objective)
		best.offer(mono.Objective, mono.Decisions, mono.Feasible)
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	best.install(plan)
	st.stampCounters(plan)
	st.publish(plan)
	return plan, nil
}

// reconcile runs the capacity-reconciliation rounds: each migrates load
// between shards (reconcileStep) and then repairs the shards a migration
// touched, offering the resulting point to best and recording it in plan's
// trajectory and round count.
//
// With a donor scope (the scale regime of a delta replan; updated in place)
// the repair only re-balances shares: every mover's surgery was already
// refreshed at its new home inside tryTargets, incumbents' plans are still
// optimal for shares that only shifted marginally, and re-optimizing whole
// touched shards is what would drag a dirty-single-shard replan back to
// O(n). Touched shards join the scope, so contention ripples outward
// exactly as far as migrations actually reach, and the loop stops as soon
// as a round accepts nothing or improves by less than Epsilon — a round
// costs O(candidates × shard size) even when it accepts nothing. Without a
// scope the repair is a full polish — one surgery pass at the post-move
// shares, then re-allocation; untouched shards sit at their inner fixed
// point, where the pass would be a no-op — and the loop runs until a
// genuinely move-free round.
//
// Verification-sized scenarios (the exhaustive-reconcile regime, where the
// differential suites live) always reconcile with the full donor set and
// the monolithic descent's own round budget: there the contract is fidelity
// to the monolithic reference (the pinned ≤1% gap), not wall-clock, and a
// dirty-only scope can strand an improving move whose donor happens to be a
// clean shard.
func (st *state) reconcile(scope []bool, best *incumbent, plan *Plan) error {
	sc, opt := st.sc, &st.opt
	if !st.reassigns() {
		return nil
	}
	maxRounds := reconcileRounds
	if len(sc.Users)*len(sc.Servers) <= reconcileCandidateBudget {
		scope = nil
		maxRounds = max(maxRounds, opt.MaxIters)
	}
	prev := best.obj
	for r := 0; r < maxRounds; r++ {
		if err := st.checkpoint(); err != nil {
			return err
		}
		moved, touched := st.reconcileStep(scope)
		if moved == 0 && r == 0 {
			// Nothing to rebalance: every shard is already at its own fixed
			// point, so the starting point IS the plan (and, for a full plan
			// of a non-contended scenario, the monolithic plan bit for bit).
			break
		}
		if scope == nil {
			if err := st.polishServers(touched); err != nil {
				return err
			}
		} else {
			for s, t := range touched {
				if t {
					st.allocServer(s)
					scope[s] = true
				}
			}
		}
		st.recomputeFeasible()
		cur := st.objectiveNow()
		plan.Trajectory = append(plan.Trajectory, cur)
		plan.Iterations++
		best.offer(cur, st.ds, st.feasible)
		stop := moved == 0 && opt.converged(prev, cur)
		if scope != nil {
			stop = moved == 0 || opt.converged(prev, cur)
		}
		if stop {
			break
		}
		prev = cur
	}
	return nil
}

// crossCheck plans the scenario monolithically — a second state on this one's
// tables and ledger, so its lookups and ops are the plan's own — and returns
// nil when the check is skipped or fails. Greedy first-improvement descent is
// path dependent, and shards converged in isolation (or warm-started from a
// previous plan) can land in a different basin than the interleaved
// monolithic loop. At verification sizes the cross-check pins the
// differential contract — never worse than monolithic — by construction;
// ties keep the caller's decisions, so the bit-identity guarantee on
// non-contended scenarios is unaffected. Above crossCheckUserLimit the check
// is skipped (it would double planning cost): there the reconciliation
// rounds are the whole story and E23/E26 report the measured gap instead.
// A check the budget cuts short is dropped, and the ops it was charged with
// it (its lookups stay in the tally: they were asked): it is an extra, so
// running out of budget inside it must not fail a plan that was complete
// before it started.
func (st *state) crossCheck() *Plan {
	if len(st.sc.Users) > crossCheckUserLimit {
		return nil
	}
	mopt := st.opt
	mopt.Metrics = nil // the tally is published once, by the caller's stampCounters
	mono := newState(st.sc, mopt, st.hot)
	mono.tables, mono.spent = st.tables, st.spent
	plan, err := mono.planMonolithic()
	if err != nil {
		return nil
	}
	st.spent = mono.spent
	return plan
}

// pinLocalUsers returns, per user, the pre-computed local Decision when the
// user is provably local-only (nil otherwise): its surgery optimum on its
// affinity server at the full share stays on-device, so no allocation the
// planner could produce would make it offload. Each user's probe is a pure
// function of the scenario; the first failing one ends the pass.
//
// The probes go through the planner's one lookup path (state.solve) on a
// throw-away, uninstrumented state: full shares (1, 1) are an exact point
// of the share grid and exactly the per-server environments
// BuildFrontierSet tabulates, so runs handed tables answer the whole pass
// from them, and the pass's tally stays off the plan's counters.
func pinLocalUsers(sc *Scenario, opt Options, hot *userSoA, assign []int) ([]*Decision, error) {
	opt.Metrics = nil
	st := newState(sc, opt, hot)
	pin := make([]*Decision, len(sc.Users))
	for ui := range sc.Users {
		u := &sc.Users[ui]
		plan, ev, err := st.solve(ui, assign[ui], sc.fullShareEnv(u, assign[ui], st.uplink))
		if err != nil {
			// An infeasible full-share probe (e.g. an accuracy floor no
			// plan meets) is a real planning failure, not a local user.
			return nil, err
		}
		if plan.Partition < u.Model.NumUnits() {
			continue // the optimum crosses: this user genuinely wants a server
		}
		pin[ui] = &Decision{Plan: plan, Eval: ev, Server: -1}
	}
	return pin, nil
}

// recomputeFeasible rebuilds the global feasibility flag from the
// per-server flags plus the deadline checks of device-only users, which no
// allocator ever sees (allocation only covers server-assigned users).
func (st *state) recomputeFeasible() {
	st.feasible = true
	for _, ok := range st.srvFeasible {
		st.feasible = st.feasible && ok
	}
	for ui := range st.ds {
		if st.ds[ui].Server >= 0 {
			continue
		}
		if d := st.hot.deadline[ui]; d > 0 && st.ds[ui].Latency() > d {
			st.feasible = false
		}
	}
}

// polishServers runs one surgery refresh for every user on a touched
// server followed by re-allocation of each touched server.
func (st *state) polishServers(touched []bool) error {
	var users []int
	for s, t := range touched {
		if t {
			users = append(users, st.assigned[s]...)
		}
	}
	st.spent += int64(len(users))
	if err := st.refresh(users); err != nil {
		return err
	}
	for s, t := range touched {
		if t {
			st.allocServer(s)
		}
	}
	return nil
}

// reconcileStep is one capacity-reconciliation migration pass: move users
// out of pressured shards (infeasible first, then above-average normalized
// compute demand) into shards with slack, accepting only moves that
// strictly improve the objective over the two touched shards. Every
// candidate is evaluated in-place and rolled back exactly on rejection, so
// a pass costs O(candidates × shard size) rather than the exhaustive
// scan's O(users × servers × shard size). Candidate nomination, target order, and
// acceptance are all deterministic (pressure order with index tiebreaks,
// first improvement wins). Returns the accepted move count and the set of
// servers any accepted move touched.
//
// scope, when non-nil, restricts the DONOR side to the flagged servers —
// the delta-replan contract: only shards whose inputs changed (or that a
// prior accepted move touched) may shed users, while every server remains a
// legal TARGET, so load can drain out of a drifted shard into any slack in
// the fleet. nil means every server donates (the full-replan behavior).
func (st *state) reconcileStep(scope []bool) (int, []bool) {
	nServers := len(st.sc.Servers)
	touched := make([]bool, nServers)
	if nServers < 2 {
		return 0, touched
	}
	if len(st.sc.Users)*nServers <= reconcileCandidateBudget {
		// Small scenarios get the monolithic descent's own scan, so the
		// differential gap versus the monolithic planner stays within the
		// pinned bound.
		return st.reconcileExhaustive(scope, touched), touched
	}

	// Normalized compute demand per server: how much of the server each
	// shard's plans want at full capacity.
	demand := make([]float64, nServers)
	for s := range st.assigned {
		for _, ui := range st.assigned[s] {
			demand[s] += st.ds[ui].Eval.ServerSec * math.Max(st.hot.rate[ui], 0)
		}
	}

	// Donor order: infeasible shards first, then by descending demand;
	// index breaks ties. Every shard donates — even a below-average shard
	// can hold users whose latency improves elsewhere (a slow server with
	// slack is still the wrong home for a heavy user) — but the pressured
	// shards go first so they drain while targets still have room.
	donors := make([]int, 0, nServers)
	for s := 0; s < nServers; s++ {
		if scope != nil && !scope[s] {
			continue
		}
		donors = append(donors, s)
	}
	sort.SliceStable(donors, func(a, b int) bool {
		da, db := donors[a], donors[b]
		if st.srvFeasible[da] != st.srvFeasible[db] {
			return !st.srvFeasible[da]
		}
		return demand[da] > demand[db]
	})

	// Accept on the two-shard objective alone: in the budget-bounded regime
	// the full objective is too expensive to consult per candidate, and the
	// untouched shards contribute a constant to it anyway.
	localAccept := func(before, after float64) bool {
		return after < before*(1-1e-9)
	}
	moved := 0
	for _, s := range donors {
		targets := st.targets(s, demand)
		for _, ui := range st.nominate(s, st.nominationWidth(len(donors), s)) {
			if st.ds[ui].Server != s {
				continue // an earlier accepted move already relocated it
			}
			if to := st.tryTargets(ui, s, targets, localAccept); to >= 0 {
				// Keep the demand ledger current so later target picks
				// see the shifted load.
				d := st.ds[ui].Eval.ServerSec * math.Max(st.hot.rate[ui], 0)
				demand[s] -= d
				demand[to] += d
				targets = st.targets(s, demand)
				touched[s], touched[to] = true, true
				moved++
			}
		}
	}
	return moved, touched
}

// reconcileExhaustive is the exhaustive candidate scan — users in index
// order, targets in server-index order, first move that strictly improves
// the GLOBAL objective wins — evaluated in place with exact rollback. It is
// the monolithic descent's reassignment half at every size and the
// reconciliation pass of small scenarios; being one function is what keeps
// the differential gap on test-sized scenarios within the pinned bound.
// scope (nil = all) restricts donors exactly as in reconcileStep: a user may
// only move if its current server is in scope. Returns the accepted move
// count, having marked the servers they touched.
func (st *state) reconcileExhaustive(scope, touched []bool) int {
	// The global objective only changes when a move is accepted (rejection
	// restores exactly), so it is carried across users, not re-summed for each.
	base := st.objectiveNow()
	globalAccept := func(before, after float64) bool {
		// base - before + after is the global objective the move leaves
		// behind: only the two touched shards' terms change.
		return base-before+after < base*(1-1e-9)
	}
	targets := make([]int, 0, len(st.sc.Servers))
	moved := 0
	for ui := range st.sc.Users {
		from := st.ds[ui].Server
		if from < 0 || (scope != nil && !scope[from]) {
			continue
		}
		targets = st.otherServers(targets[:0], from)
		if to := st.tryTargets(ui, from, targets, globalAccept); to >= 0 {
			touched[from], touched[to] = true, true
			moved++
			base = st.objectiveNow()
		}
	}
	return moved
}

// nominationWidth sizes a donor shard's candidate list so one round's
// total move-evaluation work (candidates × shard size, times the target
// fan-out) stays under reconcileWorkBudget regardless of scale, never
// dropping below the reconcileTopK floor.
func (st *state) nominationWidth(nDonors, s int) int {
	size := len(st.assigned[s])
	if nDonors < 1 {
		nDonors = 1
	}
	if size < 1 {
		size = 1
	}
	k := reconcileWorkBudget / (nDonors * reconcileMaxTargets * size)
	if k < reconcileTopK {
		k = reconcileTopK
	}
	return k
}

// nominate picks the donor shard's candidate movers: the topK users by
// weighted-latency contribution (the ones a move could help most — a
// bounded nomination even for infeasible shards, since draining an
// overload is shedStep's job, not reconciliation's). The returned order is
// deterministic.
func (st *state) nominate(s, topK int) []int {
	users := st.assigned[s]
	if len(users) <= topK {
		return append([]int(nil), users...)
	}
	cand := append([]int(nil), users...)
	contrib := func(ui int) float64 {
		return st.hot.weight[ui] * st.ds[ui].Latency()
	}
	sort.SliceStable(cand, func(a, b int) bool { return contrib(cand[a]) > contrib(cand[b]) })
	return cand[:topK]
}

// targets orders the candidate destination servers for a move out of s:
// ascending demand (the shards with the most slack first), index tiebreak,
// bounded to reconcileMaxTargets.
func (st *state) targets(s int, demand []float64) []int {
	out := make([]int, 0, len(demand)-1)
	for t := range demand {
		if t != s {
			out = append(out, t)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return demand[out[a]] < demand[out[b]] })
	if len(out) > reconcileMaxTargets {
		out = out[:reconcileMaxTargets]
	}
	return out
}

// tryTargets evaluates migrating user ui out of server s, in place, and
// returns the first of targets (tried in order) that accept takes, or -1 with
// the state restored exactly. The donor side does not depend on where the
// mover lands, so it is evaluated once per candidate: drop the mover,
// re-allocate s without it, sum s's objective terms before and after. Each
// target then pays for its own side only: join at the uniform share, re-run
// the mover's surgery, re-allocate the target, re-run the mover once more at
// its allocated share — 2 ledger ops per target evaluated. accept decides on
// the objective restricted to the two touched shards, before versus after
// the move, each a single running sum: the donor's terms first, then the
// target's. A surgery failure on a probe rejects that target (the mover's
// current plan remains valid); every target starts from the same state.
//
// Only what a candidate can change is saved: the mover's Decision, the
// donor's list, the target's length, both feasibility flags and two shares
// per incumbent, on the state's moveScratch arena — so with allocServer's
// buffers a rejected candidate allocates nothing once they have grown to
// shard size (TestRejectedCandidateAllocatesNothing). It is the planner's
// only evaluation of a move, and only the two scans call it, one candidate at
// a time.
func (st *state) tryTargets(ui, s int, targets []int, accept func(before, after float64) bool) int {
	mv := &st.mv
	mover := st.ds[ui]
	mv.from = append(mv.from[:0], st.assigned[s]...)
	mv.fromShares = st.saveShares(mv.fromShares[:0], mv.from)
	fromFeasible := st.srvFeasible[s]

	donorBefore := st.shardObjective(s)
	st.dropFromServer(ui, s)
	st.allocServer(s)
	donorAfter := st.shardObjective(s)

	for _, to := range targets {
		st.spent += 2 // the mover's two surgery refreshes, charged up front
		n := len(st.assigned[to])
		mv.toShares = st.saveShares(mv.toShares[:0], st.assigned[to])
		toFeasible := st.srvFeasible[to]
		before := st.addShardObjective(donorBefore, to)

		st.joinServer(ui, to)
		err := st.refreshUser(ui)
		if err == nil {
			st.allocServer(to)
			err = st.refreshUser(ui)
		}
		if err == nil && accept(before, st.addShardObjective(donorAfter, to)) {
			return to
		}
		st.ds[ui] = mover
		st.assigned[to] = st.assigned[to][:n]
		st.restoreShares(st.assigned[to], mv.toShares)
		st.srvFeasible[to] = toFeasible
	}
	st.assigned[s] = append(st.assigned[s][:0], mv.from...)
	st.restoreShares(mv.from, mv.fromShares)
	st.srvFeasible[s] = fromFeasible
	return -1
}

// saveShares appends the (compute, bandwidth) share pair of each listed user
// to buf.
func (st *state) saveShares(buf []float64, users []int) []float64 {
	for _, u := range users {
		buf = append(buf, st.ds[u].ComputeShare, st.ds[u].BandwidthShare)
	}
	return buf
}

// restoreShares writes back what saveShares took from the same list.
func (st *state) restoreShares(users []int, saved []float64) {
	for i, u := range users {
		st.ds[u].ComputeShare, st.ds[u].BandwidthShare = saved[2*i], saved[2*i+1]
	}
}

package joint

import (
	"fmt"
	"math"

	"edgesurgeon/internal/alloc"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// Options tunes the joint planner.
type Options struct {
	// MaxIters bounds the block-coordinate rounds (default 12).
	MaxIters int
	// Epsilon is the relative-improvement convergence threshold
	// (default 1e-3).
	Epsilon float64
	// Surgery carries the base surgery options; per-user MinAccuracy from
	// the scenario overrides its MinAccuracy field.
	Surgery surgery.Options
	// DisableSurgery freezes plans to partition-only full-backbone
	// execution chosen once at equal shares (the "allocation-only"
	// ablation arm).
	DisableSurgery bool
	// DisableAllocation freezes shares at the equal split (the
	// "surgery-only" ablation arm).
	DisableAllocation bool
	// DisableReassignment turns off the greedy server-migration step.
	DisableReassignment bool
	// DisableProbe turns off the offloading probe share (the fair-share
	// floor that lets locally-stuck users discover offload opportunities)
	// — the cold-start ablation arm of experiment E16.
	DisableProbe bool
	// ShardThreshold, when positive, routes scenarios with at least this
	// many users through the hierarchical sharded planner: users are
	// clustered by server affinity into shards (provably local-only users
	// are pinned to their device), each shard converges in place against
	// its own server's capacity — surgery and allocation alternating, no
	// cross-shard moves — and capacity-reconciliation rounds then migrate
	// load between shards until the objective stops improving. Scenarios
	// below the threshold keep the exact monolithic path bit for bit. Zero
	// disables sharding entirely.
	ShardThreshold int
	// Frontiers, when non-nil, is a long-lived set of Pareto-frontier
	// surgery tables (register one per scenario with BuildFrontierSet) that
	// keeps the cells every plan sharing it fills, and may serve planners on
	// several goroutines at once. It changes speed and the hit/miss
	// counters, never the plan: the planner answers every surgery problem
	// from a table over the same geometric share grid either way, and a key
	// the set does not hold (or any key, with no set) gets a table private
	// to the plan, one optimizer call per cell the plan lands on.
	Frontiers *surgery.FrontierSet
	// SurgeryBudget, when positive, bounds one Plan call's deterministic
	// work budget measured in "surgery ops" — per-user surgery lookups,
	// charged as scheduled: each surgery pass its width before it runs, each
	// candidate move 2 per target it evaluates. The budget is checked at
	// orchestration checkpoints (every descent, shard-converge and
	// reconciliation round), so an overrun aborts at the same round of every
	// run of the same input: Plan returns an *AbortedError and no partial
	// plan. This is the control plane's virtual-clock replan deadline
	// (Policy.ReplanDeadline); zero means unlimited. Every route
	// charges one ledger; the sharded routes' monolithic cross-check runs on
	// what is left of it and is dropped, not fatal, when that runs out.
	SurgeryBudget int64
	// Metrics, when non-nil, receives the planner's instrumentation:
	// "planner.plans" and "planner.iterations" counters plus the
	// "planner.frontier.hits"/".misses" series (accumulated across Plan
	// calls; the per-call Plan fields remain exact deltas).
	// Instrumentation never changes planner output.
	Metrics *telemetry.Registry

	// noMemo answers every surgery problem with a direct optimizer call at
	// the snapped shares: the reference the in-package tests hold the
	// tables to. Nothing outside them sets it.
	noMemo bool
}

// surgeryOptions resolves one user's surgery options: the base sweep
// configuration with the partition freed, the user's accuracy floor and the
// surgery ablation's no-exit rule applied. Every surgery call the planner
// makes — the hot loop, the local-pin pre-pass, and frontier-table
// construction — derives its options here, so all paths stay consistent.
func (o Options) surgeryOptions(u *User) surgery.Options {
	sopt := o.Surgery
	sopt.FixedPartition = surgery.FreePartition
	if u.MinAccuracy > 0 {
		sopt.MinAccuracy = u.MinAccuracy
	}
	if o.DisableSurgery {
		sopt.NoExits = true
	}
	return sopt
}

// Planner is the joint surgery + allocation + assignment optimizer.
type Planner struct {
	Opt Options
}

// Name implements Strategy.
func (p *Planner) Name() string {
	switch {
	case p.Opt.DisableSurgery && p.Opt.DisableAllocation:
		return "neither"
	case p.Opt.DisableSurgery:
		return "alloc-only"
	case p.Opt.DisableAllocation:
		return "surgery-only"
	default:
		return "joint"
	}
}

func (p *Planner) opts() Options {
	o := p.Opt
	if o.MaxIters <= 0 {
		o.MaxIters = 12
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-3
	}
	return o
}

// converged is the descent stop rule every route shares: the objective
// improved by no more than Epsilon relative to the previous round.
func (o *Options) converged(prev, cur float64) bool {
	return prev-cur <= o.Epsilon*math.Max(prev, 1e-12)
}

// validateForPlanning is the entry check of every full and delta planning
// route.
func (sc *Scenario) validateForPlanning() error {
	if err := sc.Validate(); err != nil {
		return err
	}
	// Device-only studies go through the local-only baseline; the joint
	// planner's surgery/allocation/assignment loop needs servers to
	// optimize over.
	if len(sc.Servers) == 0 {
		return fmt.Errorf("joint: scenario has no servers (use the local-only baseline for device-only studies)")
	}
	return nil
}

// Plan implements Strategy: block-coordinate descent over (surgery,
// allocation, assignment), seeded with the greedy initial assignment.
func (p *Planner) Plan(sc *Scenario) (*Plan, error) {
	if err := sc.validateForPlanning(); err != nil {
		return nil, err
	}
	opt := p.opts()
	if opt.ShardThreshold > 0 && len(sc.Users) >= opt.ShardThreshold {
		return p.planSharded(sc, opt)
	}
	st := newState(sc, opt, buildUserSoA(sc))
	plan, err := st.planMonolithic()
	if err != nil {
		return nil, err
	}
	plan.PlannerName = p.Name()
	st.publish(plan)
	return plan, nil
}

// planMonolithic seeds a fresh state greedily and runs the full descent on
// it: Plan below the shard threshold, and the sharded routes' cross-check.
func (st *state) planMonolithic() (*Plan, error) {
	st.seedGreedy()
	return st.descend(st.reassigns())
}

// reassigns reports whether users may change servers at all.
func (st *state) reassigns() bool {
	return !st.opt.DisableReassignment && len(st.sc.Servers) > 1
}

// PlanWithAssignment runs the alternating surgery/allocation refinement to
// convergence with a pinned user-to-server assignment (no reassignment
// step). The exhaustive-assignment optimality reference enumerates
// assignments and calls this for each.
func PlanWithAssignment(sc *Scenario, opt Options, assign []int) (*Plan, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(assign) != len(sc.Users) {
		return nil, fmt.Errorf("joint: assignment length %d for %d users", len(assign), len(sc.Users))
	}
	p := Planner{Opt: opt}
	st := newState(sc, p.opts(), buildUserSoA(sc))
	if err := st.seedAssignment(assign); err != nil {
		return nil, err
	}
	plan, err := st.descend(false)
	if err != nil {
		return nil, err
	}
	plan.PlannerName = "joint-fixed-assignment"
	plan.Trajectory = nil // the fixed-assignment reference reports none
	return plan, nil
}

// descend is the block-coordinate descent every full monolithic plan runs
// from its seed. Round 0 is surgery at the seed's shares, then allocation;
// each later round optionally reassigns — one exhaustive candidate scan, the
// pass reconciliation runs at verification sizes — then repeats the pair,
// until the objective stops improving (Options.converged) or MaxIters rounds
// ran.
// The trajectory records the objective after both half-steps of round 0
// and after every later round, so the convergence figure (E10) shows where
// each mechanism contributes. The returned plan is the best point visited,
// with the state's counters stamped.
func (st *state) descend(reassign bool) (*Plan, error) {
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	if err := st.surgeryStep(); err != nil {
		return nil, err
	}
	traj := []float64{st.objectiveNow()}
	st.allocStep()
	best := st.snapshot()
	prev := best.obj
	traj = append(traj, prev)

	// The scan marks the servers its moves touched; unread here, where every
	// round re-runs surgery and allocation everywhere.
	touched := make([]bool, len(st.sc.Servers))
	iters := 1
	for ; iters < st.opt.MaxIters; iters++ {
		if err := st.checkpoint(); err != nil {
			return nil, err
		}
		if reassign {
			st.reconcileExhaustive(nil, touched)
		}
		if err := st.surgeryStep(); err != nil {
			return nil, err
		}
		st.allocStep()
		cur := st.objectiveNow()
		traj = append(traj, cur)
		best.offer(cur, st.ds, st.feasible)
		if st.opt.converged(prev, cur) {
			iters++
			break
		}
		prev = cur
	}
	if err := st.checkpoint(); err != nil {
		return nil, err
	}
	plan := &Plan{Iterations: iters, Trajectory: traj}
	best.install(plan)
	st.stampCounters(plan)
	return plan, nil
}

// incumbent is the best-objective snapshot every descent keeps: probe
// shares and first-improvement greedy steps are optimistic, so the point a
// loop ends on may be worse than one it passed through — the snapshot is
// what makes each route's result monotone in the rounds it ran.
type incumbent struct {
	obj      float64
	ds       []Decision
	feasible bool
}

// snapshot captures the state's current point.
func (st *state) snapshot() incumbent {
	return incumbent{obj: st.objectiveNow(), ds: append([]Decision(nil), st.ds...), feasible: st.feasible}
}

// offer replaces the snapshot when obj is strictly better (ties keep the
// earlier point).
func (b *incumbent) offer(obj float64, ds []Decision, feasible bool) {
	if obj < b.obj {
		b.obj, b.feasible = obj, feasible
		b.ds = append(b.ds[:0], ds...)
	}
}

// install hands the snapshot to the plan being assembled.
func (b *incumbent) install(plan *Plan) {
	plan.Decisions, plan.Objective, plan.Feasible = b.ds, b.obj, b.feasible
}

// publish counts a finished plan in the planner's registry series; the
// shard and delta series exist only for plans of those routes.
func (st *state) publish(plan *Plan) {
	reg := st.opt.Metrics
	if reg == nil {
		return
	}
	reg.Counter("planner.plans").Inc()
	reg.Counter("planner.iterations").Add(int64(plan.Iterations))
	if plan.Shards > 0 {
		reg.Counter("planner.shards").Add(int64(plan.Shards))
	}
	if plan.DirtyShards > 0 {
		reg.Counter("planner.delta_plans").Inc()
		reg.Counter("planner.dirty_shards").Add(int64(plan.DirtyShards))
	}
}

// state carries the evolving decision set.
type state struct {
	sc       *Scenario
	opt      Options
	ds       []Decision
	assigned [][]int // per server: user indices
	feasible bool
	// srvFeasible records, per server, whether the last allocation on it
	// satisfied every deadline/stability bound — the dispatcher's admission
	// control (shedStep) uses it to find overloaded servers after a failure.
	srvFeasible []bool
	uplink      []float64 // cached mean uplink rate per server

	tables   *tables       // the surgery memo and its hit/miss tally (see frontier.go)
	envBuf   []surgery.Env // reusable env snapshot for refresh
	everyone []int         // 0..n-1, surgeryStep's refresh list (built on first use)
	hot      *userSoA      // flat per-user planning scalars (see soa.go)
	mv       moveScratch   // tryTargets' reusable save/restore arena

	// allocServer's reusable buffers: the allocator's working vectors and the
	// demand list it is handed. One server is allocated at a time on a state,
	// so one of each suffices.
	allocScratch alloc.Scratch
	demands      []alloc.Demand

	// spent is the deterministic work ledger behind SurgeryBudget: the
	// surgery lookups scheduled so far, whether a table answered them or the
	// optimizer ran — a pass its width before it runs, a candidate move 2 per
	// target tried.
	spent int64
}

// newState allocates everything a planning state holds that does not
// depend on where the descent starts: the SoA view, per-server uplinks and
// feasibility flags and the surgery tables. The decision set is left to the
// seed — seedGreedy (Plan, the dispatcher's Observe),
// seedAssignment (PlanWithAssignment) or seedDecisions (the sharded plan's
// blank start and the delta warm start) — and a state that only answers
// surgery lookups (the local-pin pass) takes none.
func newState(sc *Scenario, opt Options, hot *userSoA) *state {
	st := &state{
		sc:          sc,
		opt:         opt,
		hot:         hot,
		feasible:    true,
		assigned:    make([][]int, len(sc.Servers)),
		srvFeasible: make([]bool, len(sc.Servers)),
		uplink:      make([]float64, len(sc.Servers)),
	}
	for s := range sc.Servers {
		st.srvFeasible[s] = true
		st.uplink[s] = sc.PlanningRate(s)
	}
	st.tables = newTables(&st.opt, len(sc.Users), len(sc.Servers))
	return st
}

// seedGreedy starts the state at the greedy initial assignment with equal
// shares. Per-server lists replay the acceptance order (descending work),
// the allocation input order every other seed reproduces.
func (st *state) seedGreedy() {
	st.ds = make([]Decision, len(st.sc.Users))
	if len(st.sc.Servers) == 0 {
		for i := range st.ds {
			st.ds[i].Server = -1
		}
		return
	}
	assign, order := initialAssignment(st.sc, st.hot)
	for _, ui := range order {
		s := assign[ui]
		st.ds[ui].Server = s
		st.assigned[s] = append(st.assigned[s], ui)
	}
	st.equalShares()
}

// seedAssignment starts the state at a caller-pinned assignment (-1 =
// device-only) with equal shares; per-server lists are in user order. It
// overrides a greedy seed rather than starting blank: device-only users have
// always carried the greedy seed's (unused) shares in their decisions, and
// plans stay bit-identical only if they keep doing so.
func (st *state) seedAssignment(assign []int) error {
	st.seedGreedy()
	for s := range st.assigned {
		st.assigned[s] = st.assigned[s][:0]
	}
	for ui, s := range assign {
		if s < -1 || s >= len(st.sc.Servers) {
			return fmt.Errorf("joint: user %d assigned to unknown server %d", ui, s)
		}
		st.ds[ui].Server = s
		if s >= 0 {
			st.assigned[s] = append(st.assigned[s], ui)
		}
	}
	st.equalShares()
	return nil
}

// seedDecisions adopts a decision set whose servers are already chosen
// (taking ownership of ds) and replays the per-server lists in order — the
// global descending-work acceptance order (workOrder), so downstream
// allocation sees inputs order-identical to the greedy seed's. Feasibility
// flags are the caller's to seed; settle rebuilds the global one before it
// reads it.
func (st *state) seedDecisions(ds []Decision, order []int) {
	st.ds = ds
	for _, ui := range order {
		if s := ds[ui].Server; s >= 0 {
			st.assigned[s] = append(st.assigned[s], ui)
		}
	}
}

// InitialAssignment is initialAssignment's mapping. The baselines start
// from it, so they differ from the joint plan only in surgery and allocation.
func InitialAssignment(sc *Scenario) []int {
	assign, _ := initialAssignment(sc, buildUserSoA(sc))
	return assign
}

// initialAssignment computes the planner's greedy initial user→server
// mapping: heaviest provisioned work first onto the server with the
// smallest normalized pending load (work / capacity), or -1 for every user
// when there are no servers. It returns the mapping plus the acceptance
// order (users by descending work), which seedGreedy replays to keep
// per-server lists in the historical order and the sharded planner uses
// both as the server-affinity clustering and to build its shards' lists in
// an order bit-compatible with the monolithic path.
func initialAssignment(sc *Scenario, hot *userSoA) (assign, order []int) {
	// Stable sort by descending work: the same permutation the historical
	// insertion sort produced (both are stable under the same comparator),
	// in O(n log n) so the 100k-user sharded path doesn't pay a quadratic
	// setup.
	order = workOrder(hot)
	assign = make([]int, len(sc.Users))
	load := make([]float64, len(sc.Servers))
	for _, ui := range order {
		best, bestLoad := -1, math.Inf(1)
		for s := range sc.Servers {
			l := load[s] / sc.Servers[s].Profile.PeakFLOPS
			if l < bestLoad {
				best, bestLoad = s, l
			}
		}
		assign[ui] = best
		if best >= 0 {
			load[best] += hot.work[ui]
		}
	}
	return assign, order
}

// equalShares resets every server's shares to the uniform split.
func (st *state) equalShares() {
	for s := range st.assigned {
		st.equalSharesOn(s)
	}
}

// equalSharesOn resets one server's shares to the uniform split.
func (st *state) equalSharesOn(s int) {
	n := float64(len(st.assigned[s]))
	for _, ui := range st.assigned[s] {
		st.ds[ui].ComputeShare = 1 / n
		st.ds[ui].BandwidthShare = 1 / n
	}
}

// fullShareEnv is user u's surgery environment against server s at full
// shares (s < 0: the device-only environment, which has none) with uplink
// holding the planning-time rate per server. It is the one place a user is
// turned into a surgery.Env: the full-share point is exactly what the
// frontier tables are keyed at and the local-pin pass probes, and state.env
// lowers its shares to the snapped allocation.
func (sc *Scenario) fullShareEnv(u *User, s int, uplink []float64) surgery.Env {
	env := surgery.Env{
		Device:     u.Device,
		Difficulty: u.Difficulty,
		Curves:     sc.Curves,
		Rate:       u.planningRate(),
		TxFactor:   u.TxCompression,
	}
	if s >= 0 {
		srv := &sc.Servers[s]
		env.Server = srv.Profile
		env.ComputeShare, env.BandwidthShare = 1, 1
		env.UplinkBps = uplink[s]
		env.RTT = srv.RTT
	}
	return env
}

// env builds the surgery environment for user ui. Shares are floored at
// the fair split of the user's server: allocation gives near-zero shares to
// users whose current plan is fully local, and without the floor such a
// user could never discover that offloading at a reasonable share beats
// staying local (a cold-start lock-in of the block-coordinate iteration).
// The planner keeps a best-objective snapshot, so optimistic probing can
// never worsen the returned plan.
func (st *state) env(ui int) surgery.Env {
	d := &st.ds[ui]
	env := st.sc.fullShareEnv(&st.sc.Users[ui], d.Server, st.uplink)
	if d.Server >= 0 {
		// Probe share: what this user would plausibly receive if it chose
		// to offload — an equal split among the server's *current*
		// offloaders plus itself. In the first round nobody offloads yet,
		// so the probe is optimistic (share 1) and users discover offload
		// opportunities; as offloaders accumulate the probe tightens.
		probe := 1 / float64(1+st.offloaders(d.Server, ui))
		if st.opt.DisableProbe {
			probe = 0
		}
		// Shares are snapped to the share grid before they are looked up, so
		// the tables are exact rather than approximate: a filled cell returns
		// precisely what optimizing at those shares would.
		grid := st.tables.grid
		env.ComputeShare = grid.Snap(math.Max(orOne(d.ComputeShare), probe))
		env.BandwidthShare = grid.Snap(math.Max(orOne(d.BandwidthShare), probe))
	}
	return env
}

// offloaders counts the users assigned to server s (excluding `except`)
// whose current plan crosses the partition boundary.
func (st *state) offloaders(s, except int) int {
	n := 0
	for _, ui := range st.assigned[s] {
		if ui == except {
			continue
		}
		p := &st.ds[ui].Plan
		if p.Model != nil && p.Partition < p.Model.NumUnits() {
			n++
		}
	}
	return n
}

// surgeryStep re-optimizes every user's plan at the current shares.
// Holding shares fixed, each user's latency can only decrease, so the
// objective is monotone non-increasing across this step.
func (st *state) surgeryStep() error {
	if st.everyone == nil {
		st.everyone = make([]int, len(st.sc.Users))
		for ui := range st.everyone {
			st.everyone[ui] = ui
		}
	}
	st.spent += int64(len(st.everyone))
	return st.refresh(st.everyone)
}

// refresh re-runs surgery for the listed users at the current shares,
// stopping at the first error. All environments are snapshotted before any
// plan is replaced, so every user's optimization is a pure function of the
// pre-step state (the offloader probe counts, in particular, see the step's
// inputs rather than its partial outputs): the pass is order-free. The caller
// charges the pass to the ledger — before its own checkpoint, where it has
// one.
func (st *state) refresh(users []int) error {
	if cap(st.envBuf) < len(users) {
		st.envBuf = make([]surgery.Env, len(users))
	}
	envs := st.envBuf[:len(users)]
	for i, ui := range users {
		envs[i] = st.env(ui)
	}
	for i, ui := range users {
		if err := st.optimizeUser(ui, envs[i]); err != nil {
			return err
		}
	}
	return nil
}

// optimizeUser answers one user's surgery problem in the given snapped
// environment and installs the result in st.ds[ui].
func (st *state) optimizeUser(ui int, env surgery.Env) error {
	plan, ev, err := st.solve(ui, st.ds[ui].Server, env)
	if err != nil {
		return fmt.Errorf("joint: surgery for user %d (%s): %w", ui, st.sc.Users[ui].Name, err)
	}
	st.ds[ui].Plan = plan
	st.ds[ui].Eval = ev
	return nil
}

// demandsFor builds the per-server allocation inputs from current evals, in
// the state's demand buffer: the result is valid until the next call.
func (st *state) demandsFor(s int) []alloc.Demand {
	out := st.demands[:0]
	for _, ui := range st.assigned[s] {
		ev := &st.ds[ui].Eval
		out = append(out, alloc.Demand{
			Fixed:    ev.FixedSec,
			Server:   ev.ServerSec,
			Tx:       ev.TxSec,
			Weight:   st.hot.weight[ui],
			Deadline: st.hot.deadline[ui],
			Rate:     st.hot.rate[ui],
		})
	}
	st.demands = out
	return out
}

// allocStep re-splits every server's resources given the current plans.
func (st *state) allocStep() {
	st.feasible = true
	for s := range st.assigned {
		st.allocServer(s)
		st.feasible = st.feasible && st.srvFeasible[s]
	}
}

// otherServers appends every server index but from to buf, ascending — the
// exhaustive scans' target order.
func (st *state) otherServers(buf []int, from int) []int {
	for to := range st.sc.Servers {
		if to != from {
			buf = append(buf, to)
		}
	}
	return buf
}

// joinServer appends user ui to server to's list at the uniform share.
func (st *state) joinServer(ui, to int) {
	st.assigned[to] = append(st.assigned[to], ui)
	st.ds[ui].Server = to
	n := float64(len(st.assigned[to]))
	st.ds[ui].ComputeShare = 1 / n
	st.ds[ui].BandwidthShare = 1 / n
}

// refreshUser re-runs surgery for a single user at current shares.
func (st *state) refreshUser(ui int) error {
	return st.optimizeUser(ui, st.env(ui))
}

// allocServer re-allocates one server in isolation.
func (st *state) allocServer(s int) {
	st.srvFeasible[s] = true
	if len(st.assigned[s]) == 0 {
		return
	}
	if st.opt.DisableAllocation {
		// Equal shares may still violate deadlines; report feasibility
		// against them for parity with the allocating arms.
		st.equalSharesOn(s)
		for _, ui := range st.assigned[s] {
			if d := st.hot.deadline[ui]; d > 0 && st.ds[ui].Latency() > d {
				st.srvFeasible[s] = false
			}
		}
		return
	}
	// a aliases st.allocScratch: copied into st.ds below.
	a := st.allocScratch.DeadlineAware(st.demandsFor(s))
	if !a.Feasible {
		st.srvFeasible[s] = false
	}
	for i, ui := range st.assigned[s] {
		st.ds[ui].ComputeShare = math.Max(a.Compute[i], 1e-9)
		st.ds[ui].BandwidthShare = math.Max(a.Bandwidth[i], 1e-9)
	}
}

// shedStep is the dispatcher's admission control: while a server's last
// allocation violated deadline/stability bounds, move its lowest-weight
// user (ties to the earliest index) whose device can hold its model to
// fully local execution, re-plan that user's surgery on-device, and
// re-allocate the lightened server. Servers are independent under
// per-server allocation, so each is drained in index order. Returns the
// number of users shed.
func (st *state) shedStep() (int, error) {
	shed := 0
	for s := range st.assigned {
		var excluded map[int]bool
		for !st.srvFeasible[s] && len(st.assigned[s]) > 0 {
			pick := -1
			for _, ui := range st.assigned[s] {
				if excluded[ui] {
					continue
				}
				u := &st.sc.Users[ui]
				if !u.Device.FitsModel(u.Model) {
					continue
				}
				if pick < 0 || st.hot.weight[ui] < st.hot.weight[pick] {
					pick = ui
				}
			}
			if pick < 0 {
				break // nobody on this server can run locally
			}
			prev := st.ds[pick]
			st.dropFromServer(pick, s)
			st.ds[pick].Server = -1
			st.ds[pick].ComputeShare, st.ds[pick].BandwidthShare = 0, 0
			if err := st.refreshUser(pick); err != nil {
				// On-device surgery can still fail (e.g. an accuracy floor
				// no local plan meets); restore the user and try the next
				// candidate.
				st.ds[pick] = prev
				st.assigned[s] = append(st.assigned[s], pick)
				if excluded == nil {
					excluded = make(map[int]bool)
				}
				excluded[pick] = true
				continue
			}
			st.allocServer(s)
			shed++
		}
	}
	st.feasible = true
	for _, ok := range st.srvFeasible {
		st.feasible = st.feasible && ok
	}
	return shed, nil
}

// dropFromServer removes user ui from server s's assignment list.
func (st *state) dropFromServer(ui, s int) {
	lst := st.assigned[s]
	for i, v := range lst {
		if v == ui {
			st.assigned[s] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

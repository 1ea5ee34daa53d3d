package joint

import (
	"sort"
	"sync"
	"sync/atomic"

	"edgesurgeon/internal/surgery"
)

// This file is the planner's one memo for its innermost question — the best
// surgery for a user at these shares: surgery.Frontier tables over the one
// geometric share grid (state.env snaps every environment onto it). A key
// tabulated in Options.Frontiers is answered from the precomputed set;
// every other key gets a table private to the planning state, whose cells
// are filled on first query by one optimizer call at that grid point. A
// filled cell returns exactly what the optimizer would compute there, so
// which tables were supplied, the table budget, parallelism and shard
// threshold can never change planner output — only how much optimizer work
// a plan pays for, which the hit/miss tally reports.

// tables is one planning state's view of the surgery tables, shared with
// its cross-check state and discarded with it.
type tables struct {
	set  *surgery.FrontierSet // Options.Frontiers; nil when none were precomputed
	bo   surgery.BuildOptions // what on-demand tables run the optimizer under
	grid surgery.ShareGrid
	// hits counts lookups answered from a filled cell, misses the ones that
	// ran the optimizer. A cell's fill is reported by exactly one lookup
	// however many race to it, so the split — not just the sum — is the
	// same at every Parallelism level that schedules the same lookups.
	hits, misses atomic.Int64
	// slots caches the key→table resolution per (user, server) pair: within
	// one planning state every key component except the shares — model,
	// device, server profile, planning-time uplink, rate, constraint set —
	// is constant for a given pair, so constructing and hashing a
	// FrontierKey per query (the dominant lookup cost at 100k users) is
	// pure waste after the first resolution. Racing resolvers of one slot
	// store the same table. Laid out nUsers×(nServers+1) with column 0 the
	// device-only (server -1) environment.
	slots    []atomic.Pointer[surgery.Frontier]
	nServers int
	// own holds the on-demand tables of keys outside set — drifted uplinks
	// on the observe path, keys past the table budget, or every key when no
	// set was supplied. They never enter the long-lived set or its budget.
	mu  sync.Mutex
	own map[surgery.FrontierKey]*surgery.Frontier
}

func newTables(opt *Options, nUsers, nServers int) *tables {
	tb := &tables{
		set:      opt.Frontiers,
		bo:       surgery.BuildOptions{Surgery: opt.Surgery},
		grid:     surgery.NewShareGrid(0),
		slots:    make([]atomic.Pointer[surgery.Frontier], nUsers*(nServers+1)),
		nServers: nServers,
		own:      make(map[surgery.FrontierKey]*surgery.Frontier),
	}
	if tb.set != nil {
		tb.grid = tb.set.Grid()
	}
	return tb
}

// table resolves a key: the precomputed table when the set holds one, else
// this state's on-demand table for it.
func (tb *tables) table(k surgery.FrontierKey) (*surgery.Frontier, error) {
	if tb.set != nil {
		if t := tb.set.Get(k); t != nil {
			return t, nil
		}
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	t := tb.own[k]
	if t == nil {
		var err error
		if t, err = surgery.BuildFrontier(k, tb.bo); err != nil {
			return nil, err
		}
		tb.own[k] = t
	}
	return t, nil
}

// solve is the planner's one surgery-lookup path: user ui's optimum in env,
// an environment of server (-1 = device-only) at already-snapped shares —
// resolve the (user, server) slot to its table once, then look the shares
// up. It reads no decision state, which is what lets the local-pin pass ask
// it before any exists.
func (st *state) solve(ui, server int, env surgery.Env) (surgery.Plan, surgery.Eval, error) {
	u := &st.sc.Users[ui]
	if st.opt.noMemo {
		return surgery.Optimize(u.Model, env, st.opt.surgeryOptions(u))
	}
	tb := st.tables
	slot := &tb.slots[ui*(tb.nServers+1)+server+1]
	t := slot.Load()
	if t == nil {
		var err error
		if t, err = tb.table(surgery.KeyOf(u.Model, env, st.opt.surgeryOptions(u))); err != nil {
			return surgery.Plan{}, surgery.Eval{}, err
		}
		slot.Store(t)
	}
	plan, ev, known, err := t.Lookup(env.ComputeShare, env.BandwidthShare)
	if known {
		tb.hits.Add(1)
	} else {
		tb.misses.Add(1)
	}
	return plan, ev, err
}

// stampCounters writes a fresh plan's ledger and tally and publishes the
// tally to the planner's registry. It is the single aggregation point behind
// every plan producer, and the only place the registry series are touched,
// so an instrumented plan reports exactly what an uninstrumented one does.
func (st *state) stampCounters(plan *Plan) {
	plan.SurgeryOps = st.spent
	plan.FrontierHits, plan.FrontierMisses = st.tables.hits.Load(), st.tables.misses.Load()
	if reg := st.opt.Metrics; reg != nil {
		reg.Counter("planner.frontier.hits").Add(plan.FrontierHits)
		reg.Counter("planner.frontier.misses").Add(plan.FrontierMisses)
	}
}

// frontierKeys enumerates the surgery keys sc's users can probe: per user,
// the device-only key (the shed/local-pin path) when deviceOnly is set, then
// one key per server in the mask (nil = every server) at the scenario's
// planning-time uplink. Keys come back deduplicated in first-appearance
// order with the number of users sharing each.
func frontierKeys(sc *Scenario, opt Options, servers []bool, deviceOnly bool) ([]surgery.FrontierKey, map[surgery.FrontierKey]int) {
	uplink := make([]float64, len(sc.Servers))
	var include []int
	for s := range sc.Servers {
		if servers == nil || (s < len(servers) && servers[s]) {
			uplink[s] = sc.meanUplink(s)
			include = append(include, s)
		}
	}
	count := make(map[surgery.FrontierKey]int)
	var keys []surgery.FrontierKey
	note := func(u *User, s int, sopt surgery.Options) {
		k := surgery.KeyOf(u.Model, sc.fullShareEnv(u, s, uplink), sopt)
		if count[k] == 0 {
			keys = append(keys, k)
		}
		count[k]++
	}
	for ui := range sc.Users {
		u := &sc.Users[ui]
		sopt := opt.surgeryOptions(u)
		if deviceOnly {
			note(u, -1, sopt)
		}
		for _, s := range include {
			note(u, s, sopt)
		}
	}
	return keys, count
}

// buildFrontiers builds one table per key across opt.Parallelism workers.
// Build errors are deliberately swallowed per key: a key whose table fails
// to build (an infeasible constraint) is left to the planner's on-demand
// table, which surfaces the real error with the user's name attached if a
// plan lands on an infeasible cell. Callers truncate keys to the set's headroom up
// front — Build refuses keys at capacity — so which keys get tables is
// independent of build order and parallelism.
func buildFrontiers(set *surgery.FrontierSet, opt Options, keys []surgery.FrontierKey) {
	_ = forEachIndex(opt.parallelism(), len(keys), func(i int) error {
		_ = set.Build(keys[i])
		return nil
	})
}

// BuildFrontierSet precomputes frontier tables for every surgery key the
// planner can probe in sc: for each user, its device-only key plus one key
// per server at the scenario's planning-time uplink. Keys are deduplicated,
// ranked by how many users share them (ties by first appearance) and built
// most-popular-first up to the set's table budget; untabulated keys are
// filled on demand at plan time, one frontier miss per cell.
// Construction fans across opt.Parallelism workers; the resulting set is
// identical at every parallelism level.
func BuildFrontierSet(sc *Scenario, opt Options, bo surgery.BuildOptions) (*surgery.FrontierSet, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	set := surgery.NewFrontierSet(bo)
	keys, count := frontierKeys(sc, opt, nil, true)
	sort.SliceStable(keys, func(a, b int) bool { return count[keys[a]] > count[keys[b]] })
	if budget := set.Budget(); len(keys) > budget {
		keys = keys[:budget]
	}
	buildFrontiers(set, opt, keys)
	return set, nil
}

// ExtendFrontierSet adds frontier tables for the flagged servers' drifted
// environments to an existing set: one key per (user, flagged server) pair
// at the scenario's current planning-time uplink, deduplicated, keys already
// tabulated skipped, and the missing list truncated to the set's remaining
// table headroom. Device-only keys never drift (they contain no link state)
// so they are not revisited. Returns the number of tables added.
func ExtendFrontierSet(set *surgery.FrontierSet, sc *Scenario, opt Options, servers []bool) int {
	if set == nil || servers == nil {
		return 0
	}
	keys, _ := frontierKeys(sc, opt, servers, false)
	missing := keys[:0]
	for _, k := range keys {
		if set.Get(k) == nil {
			missing = append(missing, k)
		}
	}
	before := set.Len()
	if room := set.Budget() - before; len(missing) > room {
		missing = missing[:max(room, 0)]
	}
	buildFrontiers(set, opt, missing)
	return set.Len() - before
}

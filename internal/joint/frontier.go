package joint

import (
	"math"
	"sort"

	"edgesurgeon/internal/surgery"
)

// This file is the planner's one memo for its innermost question — the best
// surgery for a user at these shares: surgery.Frontier tables over the one
// grid of compute shares and absolute bandwidths (state.env snaps every
// environment onto it), each answering its key at every link rate. A key
// registered in Options.Frontiers is answered from the set's table, which
// keeps its cells for every plan that shares the set; every other key gets a
// table private to the planning state. Either way a cell is filled on its
// first query by one optimizer call at that grid point. A filled cell
// returns exactly what the optimizer would compute there, so which tables
// were registered, which plan filled a cell first, the table budget and the
// shard threshold can never change planner output — only how much optimizer
// work a plan pays for, which the hit/miss tally reports.

// tables is one planning state's view of the surgery tables, shared with
// its cross-check state and discarded with it. It runs on the planning
// goroutine: the set's tables may be shared with planners on other goroutines
// (each table locks its own cells), while the private tables and the tally
// belong to this state alone.
type tables struct {
	set *surgery.FrontierSet // Options.Frontiers; nil when none was supplied
	// hits counts lookups answered from a filled cell, misses the ones that
	// ran the optimizer.
	hits, misses int64
	// slots caches the key→table resolution per (user, server) pair: every
	// table-key component is constant for a given pair, so constructing and
	// hashing a FrontierKey per query (the dominant lookup cost at 100k
	// users) is pure waste after the first resolution. Laid out
	// nUsers×(nServers+1) with column 0 the device-only (server -1)
	// environment.
	slots    []*surgery.Frontier
	nServers int
	// own holds the private tables of keys outside set — keys past the
	// table budget, or every key when no set was supplied — in a set of no
	// budget that lives as long as this state. They never enter the
	// long-lived set or its budget.
	own *surgery.FrontierSet
}

func newTables(opt *Options, nUsers, nServers int) *tables {
	return &tables{
		set:      opt.Frontiers,
		slots:    make([]*surgery.Frontier, nUsers*(nServers+1)),
		nServers: nServers,
		own:      surgery.NewFrontierSet(surgery.BuildOptions{Surgery: opt.Surgery, MaxTables: math.MaxInt}),
	}
}

// table resolves a key: the set's table when it holds one, else this
// state's private table for it.
func (tb *tables) table(k surgery.FrontierKey) (*surgery.Frontier, error) {
	if tb.set != nil {
		if t := tb.set.Get(k); t != nil {
			return t, nil
		}
	}
	if err := tb.own.Build(k); err != nil {
		return nil, err
	}
	return tb.own.Get(k), nil
}

// solve is the planner's one surgery-lookup path: user ui's optimum in env,
// an environment of server (-1 = device-only) at an already-snapped grid
// point — resolve the (user, server) slot to its table once, then look the
// shares and rate up. It reads no decision state, which is what lets the
// local-pin pass ask it before any exists.
func (st *state) solve(ui, server int, env surgery.Env) (surgery.Plan, surgery.Eval, error) {
	u := &st.sc.Users[ui]
	if st.opt.noMemo {
		plan, _, err := surgery.Optimize(u.Model, surgery.NewShareGrid(0).Cell(env), st.opt.surgeryOptions(u))
		if err != nil {
			return surgery.Plan{}, surgery.Eval{}, err
		}
		ev, err := surgery.Evaluate(plan, env)
		return plan, ev, err
	}
	tb := st.tables
	slot := &tb.slots[ui*(tb.nServers+1)+server+1]
	if *slot == nil {
		t, err := tb.table(surgery.KeyOf(u.Model, env, st.opt.surgeryOptions(u)))
		if err != nil {
			return surgery.Plan{}, surgery.Eval{}, err
		}
		*slot = t
	}
	plan, ev, known, err := (*slot).Lookup(env.ComputeShare, env.BandwidthShare, env.UplinkBps)
	if known {
		tb.hits++
	} else {
		tb.misses++
	}
	return plan, ev, err
}

// stampCounters writes a fresh plan's ledger and tally and publishes the
// tally to the planner's registry. It is the single aggregation point behind
// every plan producer, and the only place the registry series are touched,
// so an instrumented plan reports exactly what an uninstrumented one does.
func (st *state) stampCounters(plan *Plan) {
	plan.SurgeryOps = st.spent
	plan.FrontierHits, plan.FrontierMisses = st.tables.hits, st.tables.misses
	if reg := st.opt.Metrics; reg != nil {
		reg.Counter("planner.frontier.hits").Add(plan.FrontierHits)
		reg.Counter("planner.frontier.misses").Add(plan.FrontierMisses)
	}
}

// frontierKeys enumerates the table keys sc's users can probe: per user,
// the device-only key (the shed/local-pin path) when deviceOnly is set, then
// one key per server in the mask (nil = every server), without the link
// rate, which no table is keyed on. Keys come back deduplicated in
// first-appearance order with the number of users sharing each.
func frontierKeys(sc *Scenario, opt Options, servers []bool, deviceOnly bool) ([]surgery.FrontierKey, map[surgery.FrontierKey]int) {
	var include []int
	for s := range sc.Servers {
		if servers == nil || (s < len(servers) && servers[s]) {
			include = append(include, s)
		}
	}
	noRate := make([]float64, len(sc.Servers))
	count := make(map[surgery.FrontierKey]int)
	var keys []surgery.FrontierKey
	note := func(u *User, s int, sopt surgery.Options) {
		k := surgery.KeyOf(u.Model, sc.fullShareEnv(u, s, noRate), sopt)
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

// BuildFrontierSet registers a frontier table for every surgery key the
// planner can probe in sc, at any link rates: for each user, its device-only
// key plus one key per server. Keys are deduplicated, ranked by how many
// users share them (ties by first appearance) and registered
// most-popular-first up to the set's table budget; keys past it get tables
// private to each plan. Registration runs no optimizer: a table fills a cell
// the first time a plan reads it and keeps it for every later plan that
// shares the set.
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
	for _, k := range keys {
		if err := set.Build(k); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// ExtendFrontierSet registers empty tables for the flagged servers' keys in
// an existing set: one key per (user, flagged server) pair, deduplicated,
// keys already registered skipped, and the missing list truncated to the
// set's remaining table headroom; device-only keys are not revisited. A
// drifted link adds nothing to a set BuildFrontierSet made for the same
// users and servers. Returns the number of tables added.
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
	for _, k := range missing {
		_ = set.Build(k) // a validated scenario's key within the headroom cannot fail
	}
	return set.Len() - before
}

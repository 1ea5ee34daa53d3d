package joint

import (
	"sort"
	"sync/atomic"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// This file wires the precomputed Pareto-frontier surgery tables
// (surgery.FrontierSet) into the planner's hot path. Every per-user surgery
// environment snaps its shares to the geometric share grid (state.env); with
// Options.Frontiers set, optimizeUser answers from the tables when the key
// is tabulated — an O(log levels) binary-searched quantization plus an O(1)
// cell read — falling back to surgery.Optimize (at the same snapped
// shares) otherwise. Because a table hit returns exactly what the
// optimizer would compute at those shares, hit/miss mix, table budget,
// parallelism and shard threshold can never change planner output; the
// differential tests pin this against an empty set.

// frontierStats is the planner's per-call view of a frontier set: the
// shared tables plus the hit/miss tally ("planner.frontier.hits"/".misses").
type frontierStats struct {
	set  *surgery.FrontierSet
	grid surgery.ShareGrid
	tally
	// memo caches the key→table resolution per (user, server) slot: within
	// one planning state every key component except the shares — model,
	// device, server profile, planning-time uplink, rate, constraint set —
	// is constant for a given (user, server) pair, so constructing and
	// hashing a FrontierKey per query (the dominant lookup cost at 100k
	// users, see ROADMAP) is pure waste after the first resolution. Slots
	// hold an atomic pointer: racing resolvers of one slot store equivalent
	// values, so the memo never changes output at any Parallelism level. A
	// resolved nil table is remembered too — each query on it still counts
	// a miss. Laid out nUsers×(nServers+1) with column 0 the device-only
	// (server -1) environment.
	memo     []atomic.Pointer[frontierRes]
	nServers int
}

// frontierRes is one resolved memo slot; table is nil for keys outside the
// set (the resolved-miss sentinel, distinct from an unresolved slot).
type frontierRes struct {
	table *surgery.Frontier
}

// newFrontierStats wraps set (nil set → nil stats: the legacy path). nUsers
// and nServers size the (user, server) resolution memo.
func newFrontierStats(set *surgery.FrontierSet, reg *telemetry.Registry, nUsers, nServers int) *frontierStats {
	if set == nil {
		return nil
	}
	return &frontierStats{
		set:      set,
		grid:     set.Grid(),
		tally:    newTally(reg, "planner.frontier"),
		memo:     make([]atomic.Pointer[frontierRes], nUsers*(nServers+1)),
		nServers: nServers,
	}
}

// lookup answers user ui's surgery problem from the tables, counting the
// outcome. server is the environment's server index (-1 for device-only)
// and addresses the cached key→table resolution, so repeat queries skip the
// key construction and hash entirely. A miss means the key is outside the
// table set (e.g. drifted uplink rates on the dispatcher's observe path, or
// a key past the table budget); the caller must then run the optimizer at
// the same snapped shares.
func (f *frontierStats) lookup(ui, server int, m *dnn.Model, env surgery.Env, sopt surgery.Options) (surgery.Plan, surgery.Eval, bool) {
	slot := &f.memo[ui*(f.nServers+1)+server+1]
	res := slot.Load()
	if res == nil {
		res = &frontierRes{table: f.set.Get(surgery.KeyOf(m, env, sopt))}
		slot.Store(res)
	}
	if res.table == nil {
		f.misses.Inc()
		return surgery.Plan{}, surgery.Eval{}, false
	}
	f.hits.Inc()
	plan, ev := res.table.Lookup(env.ComputeShare, env.BandwidthShare)
	return plan, ev, true
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
// to build (an infeasible constraint, a probe-budget overrun) is left to
// the planner's optimizer fallback, which surfaces the real error with the
// user's name attached. Callers truncate keys to the set's headroom up
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
// most-popular-first up to the set's table budget; untabulated keys fall
// back to the optimizer at plan time, counted as frontier misses.
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

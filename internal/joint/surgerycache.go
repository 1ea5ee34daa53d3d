package joint

import (
	"sync"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
	"edgesurgeon/internal/workload"
)

// surgeryKey identifies one memoizable surgery problem within a single
// planner invocation. Scenario-wide constants (exit curves, theta grid,
// accuracy buckets) are deliberately excluded: the cache never outlives the
// Plan call that created it, so they cannot vary across entries.
type surgeryKey struct {
	model      *dnn.Model
	device     *hardware.Profile
	server     *hardware.Profile // nil when no server is reachable
	uplinkBps  float64
	rtt        float64
	f, b       float64 // quantized compute/bandwidth share (exact grid values)
	rate       float64
	minAcc     float64
	txFactor   float64
	difficulty workload.DifficultyKind
	noExits    bool
}

// keyFor derives the cache key of an already-snapped environment. Shares
// enter the key as their exact snapped values: the geometric share grid is a
// finite set of exact float64 levels.
func keyFor(m *dnn.Model, env surgery.Env, sopt surgery.Options) surgeryKey {
	return surgeryKey{
		model:      m,
		device:     env.Device,
		server:     env.Server,
		uplinkBps:  env.UplinkBps,
		rtt:        env.RTT,
		f:          env.ComputeShare,
		b:          env.BandwidthShare,
		rate:       env.Rate,
		minAcc:     sopt.MinAccuracy,
		txFactor:   env.TxFactor,
		difficulty: env.Difficulty,
		noExits:    sopt.NoExits,
	}
}

// surgeryEntry is a memoized optimizer result. Plan/Eval carry shared
// slices (Exits, ExitProbs); consumers treat them as read-only.
type surgeryEntry struct {
	plan surgery.Plan
	eval surgery.Eval
}

// tally is a hit/miss counter pair with per-state deltas. When the planner
// is instrumented (Options.Metrics) the counters are the registry's
// "<series>.hits"/".misses" and accumulate across Plan calls; otherwise
// they are private. Either way counters() reports the counts since
// construction, which is what the Plan struct's per-call fields carry.
type tally struct {
	hits, misses *telemetry.Counter
	h0, m0       int64 // baselines at construction
}

func newTally(reg *telemetry.Registry, series string) tally {
	t := tally{hits: new(telemetry.Counter), misses: new(telemetry.Counter)}
	if reg != nil {
		t.hits, t.misses = reg.Counter(series+".hits"), reg.Counter(series+".misses")
	}
	t.h0, t.m0 = t.hits.Value(), t.misses.Value()
	return t
}

// counters returns the (hits, misses) accumulated since construction.
func (t *tally) counters() (hits, misses int64) {
	return t.hits.Value() - t.h0, t.misses.Value() - t.m0
}

// surgeryCache memoizes surgery.Optimize results for one planner
// invocation. It is safe for concurrent use by the parallel surgery and
// reassignment steps. Because the planner optimizes at quantized shares
// unconditionally, a hit returns exactly what the miss path would compute,
// so cache behaviour (including racy double-misses under parallelism)
// never changes planner output — it only changes the hit/miss tally
// ("planner.surgery_cache.hits"/".misses"). Under parallelism > 1 two
// workers may race to a first lookup of the same key and both miss, so the
// split is approximate there; hits+misses always equals the number of
// lookups.
type surgeryCache struct {
	mu      sync.Mutex
	entries map[surgeryKey]surgeryEntry
	tally
}

func newSurgeryCache(reg *telemetry.Registry) *surgeryCache {
	return &surgeryCache{
		entries: make(map[surgeryKey]surgeryEntry),
		tally:   newTally(reg, "planner.surgery_cache"),
	}
}

func (c *surgeryCache) get(k surgeryKey) (surgery.Plan, surgery.Eval, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
		return e.plan, e.eval, true
	}
	c.misses.Inc()
	return surgery.Plan{}, surgery.Eval{}, false
}

func (c *surgeryCache) put(k surgeryKey, plan surgery.Plan, eval surgery.Eval) {
	c.mu.Lock()
	c.entries[k] = surgeryEntry{plan: plan, eval: eval}
	c.mu.Unlock()
}

// stampCounters writes the per-call memoization tallies into a fresh plan: the
// state's own surgery-cache and frontier deltas plus the tallies of any
// sub-plans produced by uninstrumented inner planners (the sharded path's
// shard and cross-check plans). Sub-plan tallies are also published to the
// planner's registry — the state's own counters already live there as
// series when instrumented. This is the single aggregation point behind
// every plan producer, so new counter kinds are added here once instead of
// being copied per call site.
func (st *state) stampCounters(plan *Plan, sub ...*Plan) {
	plan.SurgeryOps = st.spent
	for _, sp := range sub {
		if sp == nil {
			continue
		}
		plan.SurgeryCacheHits += sp.SurgeryCacheHits
		plan.SurgeryCacheMisses += sp.SurgeryCacheMisses
		plan.FrontierHits += sp.FrontierHits
		plan.FrontierMisses += sp.FrontierMisses
		plan.SurgeryOps += sp.SurgeryOps
	}
	if reg := st.opt.Metrics; reg != nil {
		// Publish only non-zero sub-plan tallies: a zero Add would still
		// create the series, changing the registry rendering of runs whose
		// path never produced that counter kind.
		if plan.SurgeryCacheHits > 0 {
			reg.Counter("planner.surgery_cache.hits").Add(plan.SurgeryCacheHits)
		}
		if plan.SurgeryCacheMisses > 0 {
			reg.Counter("planner.surgery_cache.misses").Add(plan.SurgeryCacheMisses)
		}
		if plan.FrontierHits > 0 {
			reg.Counter("planner.frontier.hits").Add(plan.FrontierHits)
		}
		if plan.FrontierMisses > 0 {
			reg.Counter("planner.frontier.misses").Add(plan.FrontierMisses)
		}
	}
	if st.cache != nil {
		h, m := st.cache.counters()
		plan.SurgeryCacheHits += h
		plan.SurgeryCacheMisses += m
	}
	if st.front != nil {
		h, m := st.front.counters()
		plan.FrontierHits += h
		plan.FrontierMisses += m
	}
}

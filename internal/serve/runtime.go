// Package serve is the online control plane: a Runtime that owns a
// joint.Dispatcher, ingests timestamped telemetry samples (per-user uplink
// rates and per-server health, recorded live or synthesized from
// faults.Schedule / simulator traces), and decides *when* to replan using
// the debounce/hysteresis Policy — full block-coordinate replans when the
// environment has genuinely drifted, the dispatcher's cheap
// evacuation/refresh path otherwise. All decisions run on the virtual
// clock carried by the samples themselves; nothing in the decision path
// reads wall time, so replaying a recorded trace is bit-identical — the
// replay tests pin the plan sequence, the decision journal and the metric
// values byte for byte.
package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/telemetry"
)

// Journal event kinds recorded by the runtime, one per ingested sample
// (plus the initial plan at construction).
const (
	// EventInitialPlan is the construction-time plan.
	EventInitialPlan telemetry.EventKind = "initial-plan"
	// EventFullReplan is a fresh block-coordinate replan at observed rates.
	EventFullReplan telemetry.EventKind = "full-replan"
	// EventCheapRefresh is a dispatcher refresh (surgery + allocation at
	// pinned assignments, evacuation on health flips).
	EventCheapRefresh telemetry.EventKind = "cheap-refresh"
	// EventDeferredInterval is a drift that wanted a full replan but was
	// debounced by Policy.MinInterval (cheap refresh ran instead).
	EventDeferredInterval telemetry.EventKind = "deferred-min-interval"
	// EventDeferredBudget is a drift that wanted a full replan but was over
	// Policy.Budget for the trailing window (cheap refresh ran instead).
	EventDeferredBudget telemetry.EventKind = "deferred-budget"
	// EventNoChange is a sample that observed nothing actionable (or any
	// sample under the never-replan policy).
	EventNoChange telemetry.EventKind = "no-change"
	// EventDeltaReplan is an incremental replan under Policy.DeltaReplan:
	// only the dirty shards (listed in the event's Reason) were re-planned,
	// warm-started from the published plan. Delta replans arm the same
	// hysteresis state a full replan does.
	EventDeltaReplan telemetry.EventKind = "delta-replan"
	// EventAbortedReplan is a full replan that exceeded the
	// Policy.ReplanDeadline surgery-op budget and was abandoned; the
	// previous valid plan stayed published (refreshed through the cheap
	// path) and the abort feeds the MinInterval debounce.
	EventAbortedReplan telemetry.EventKind = "aborted-replan"
	// EventQuarantine is a telemetry source tripping its quarantine after
	// Policy.QuarantineStrikes consecutive validation failures.
	EventQuarantine telemetry.EventKind = "quarantine"
	// EventQuarantineReadmit is a quarantined source readmitted on
	// probation after Policy.QuarantineProbation virtual seconds.
	EventQuarantineReadmit telemetry.EventKind = "quarantine-readmit"
)

// QuarantineError reports the sample that tripped a source's quarantine.
// It surfaces only on that tripping call; subsequent samples from the
// muted source are dropped silently (counted in
// "serve.quarantine.dropped") until readmission.
type QuarantineError struct {
	// Source is the quarantined telemetry source ("" = the anonymous
	// source).
	Source string
	// Strikes is how many consecutive validation failures tripped it.
	Strikes int
	// Until is the virtual time at which the source is readmitted.
	Until float64
}

// Error implements error.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("serve: source %q quarantined until t=%g after %d validation failures", e.Source, e.Until, e.Strikes)
}

// Config assembles a Runtime.
type Config struct {
	// Scenario is the deployment being served. The runtime keeps its own
	// link-rate view, so the scenario is not mutated.
	Scenario *joint.Scenario
	// Planner is the strategy for full replans and the dispatcher's cheap
	// rounds (nil = default joint planner). The runtime instruments a copy;
	// the caller's planner is not modified.
	Planner *joint.Planner
	// Policy is the replanning hysteresis (zero value = AlwaysReplan).
	Policy Policy
	// Frontier keeps Pareto-frontier surgery tables across plans: a table
	// set is registered per planned scenario at construction and on every
	// full replan (against its frozen drifted rates), extended on delta
	// replans, and each table keeps the cells every plan sharing it fills.
	// Table counts land in the "serve.frontier.*" series. It changes speed
	// and the planner.frontier.* hit/miss split, never the plan: without it
	// every plan fills tables of its own.
	Frontier bool
	// Store, when set, makes the runtime crash-safe: every ingested sample
	// is written ahead to the store's WAL before it is acted on, and a
	// fresh snapshot is written at construction and after every successful
	// full replan. Recover rebuilds a byte-identical runtime from the
	// store plus the same Config. The runtime owns the store once handed
	// over; Close releases it. Nil runs in-memory only.
	Store *Store
}

// Runtime is the online serving loop's state machine. Methods are safe for
// concurrent use (the HTTP endpoints read while a replay ingests), but
// ingestion itself is serialized: samples are a totally ordered stream.
type Runtime struct {
	mu      sync.Mutex
	sc      *joint.Scenario
	planner *joint.Planner
	policy  Policy
	disp    *joint.Dispatcher
	reg     *telemetry.Registry
	journal telemetry.Journal

	frontier bool   // rebuild + install frontier tables for every planned scenario
	store    *Store // nil = in-memory only (and while recovery replays the WAL)
	st       state  // the folded state a snapshot stores

	cSamples, cRejected, cFull, cCheap, cDeferred, cNoChange *telemetry.Counter
	cAborted, cQDropped, cQuarantined, cQReadmit             *telemetry.Counter
	cDelta, cDirty                                           *telemetry.Counter
	gObjective, gFeasible, gClock                            *telemetry.Gauge
	gDriftSrv                                                []*telemetry.Gauge // per-server drift (see drift)
	hDrift                                                   *telemetry.Histogram
	hDeltaOps                                                *telemetry.Histogram
}

// New validates the configuration, plans the scenario once at its planning
// rates (the initial plan, journaled at virtual time 0) and returns the
// running control plane.
func New(cfg Config) (*Runtime, error) {
	rt, err := newShell(cfg)
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(cfg.Scenario.Servers))
	for s := range rates {
		rates[s] = cfg.Scenario.PlanningRate(s)
	}
	if err := rt.open(state{Rates: rates, PlanRates: slices.Clone(rates)}, "initial plan"); err != nil {
		return nil, err
	}
	plan := rt.disp.Current()
	rt.journal.Record(telemetry.Event{Time: 0, Kind: EventInitialPlan, Value: plan.Objective, Reason: plan.PlannerName})
	if rt.store != nil {
		if err := rt.store.WriteSnapshot(rt.captureSnapshot()); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// newShell validates cfg and builds the runtime skeleton New and the
// recovery constructor share: the instrumented planner copy, the wired
// registry series, the store handle. Every counter is registered here
// unconditionally so a runtime that never aborts or quarantines still
// renders the same metric schema.
func newShell(cfg Config) (*Runtime, error) {
	if cfg.Scenario == nil {
		return nil, fmt.Errorf("serve: config needs a scenario")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry() // retrievable via Runtime.Metrics
	// Instrument a private copy so the caller's planner keeps its options.
	planner := &joint.Planner{}
	if cfg.Planner != nil {
		planner.Opt = cfg.Planner.Opt
	}
	planner.Opt.Metrics = reg
	rt := &Runtime{
		sc:       cfg.Scenario,
		planner:  planner,
		policy:   cfg.Policy,
		reg:      reg,
		frontier: cfg.Frontier,
		store:    cfg.Store,

		cSamples:     reg.Counter("serve.samples"),
		cRejected:    reg.Counter("serve.samples_rejected"),
		cFull:        reg.Counter("serve.replans.full"),
		cCheap:       reg.Counter("serve.replans.cheap"),
		cDeferred:    reg.Counter("serve.replans.deferred"),
		cNoChange:    reg.Counter("serve.no_change"),
		cAborted:     reg.Counter("serve.replans.aborted"),
		cQDropped:    reg.Counter("serve.quarantine.dropped"),
		cQuarantined: reg.Counter("serve.quarantine.quarantined"),
		cQReadmit:    reg.Counter("serve.quarantine.readmitted"),
		cDelta:       reg.Counter("serve.replans.delta"),
		cDirty:       reg.Counter("serve.replan.dirty_shards"),
		gObjective:   reg.Gauge("serve.plan.objective"),
		gFeasible:    reg.Gauge("serve.plan.feasible"),
		gClock:       reg.Gauge("serve.clock"),
		hDrift:       reg.Histogram("serve.uplink_rel_change", 0.05, 0.1, 0.2, 0.4, 0.8),
		// Delta-replan latency is reported in deterministic surgery ops
		// (the plan's scheduled-work ledger), never wall time: every value
		// in the registry must replay byte-identically, and ops are the
		// same latency proxy the ReplanDeadline budget is denominated in.
		hDeltaOps: reg.Histogram("serve.replan.delta_latency", 1e2, 1e3, 1e4, 1e5, 1e6),
	}
	rt.gDriftSrv = make([]*telemetry.Gauge, len(cfg.Scenario.Servers))
	for i := range rt.gDriftSrv {
		// The gauge name's source token is the same canonical SourceID the
		// quarantine table keys on and wire agents register with — one
		// naming scheme across every per-server label.
		rt.gDriftSrv[i] = reg.Gauge("serve.drift." + telemetry.SourceID(i))
	}
	return rt, nil
}

// open makes st the runtime's state and installs the plan st describes, made
// at its PlanRates. A missing Down reads as all up and a zero Throttle as
// full speed. what names the caller (New, recovery) in errors.
func (rt *Runtime) open(st state, what string) error {
	rt.st = st
	if rt.st.Down == nil {
		rt.st.Down = make([]bool, len(rt.st.Rates))
	}
	if rt.st.Throttle == 0 {
		rt.st.Throttle = 1
	}
	frozen, plan, err := rt.planAt(rt.st.PlanRates)
	if err == nil {
		err = rt.install(frozen, plan)
	}
	if err != nil {
		return fmt.Errorf("serve: %s: %w", what, err)
	}
	return nil
}

// Current returns the active plan.
func (rt *Runtime) Current() *joint.Plan {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.disp.Current()
}

// Clock returns the virtual time of the last accepted sample.
func (rt *Runtime) Clock() float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.st.Clock
}

// Rate returns server s's last-known uplink rate in bps: its last valid
// observation, or the scenario's planning rate before any.
func (rt *Runtime) Rate(s int) float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.st.Rates[s]
}

// Up reports whether server s is up as of the last accepted health
// observation; every server starts up.
func (rt *Runtime) Up(s int) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return !rt.st.Down[s]
}

// Metrics returns the runtime's registry.
func (rt *Runtime) Metrics() *telemetry.Registry { return rt.reg }

// Journal returns the replan-decision journal.
func (rt *Runtime) Journal() *telemetry.Journal { return &rt.journal }

// FullReplans returns how many full replans have run (excluding the
// initial plan).
func (rt *Runtime) FullReplans() int64 { return rt.cFull.Value() }

// Ingest validates one telemetry sample, advances the virtual clock,
// decides between full replan / cheap refresh / nothing under the policy,
// and returns the now-active plan. A rejected sample (typed
// *joint.BadObservationError for malformed values and mismatched widths,
// *QuarantineError on the strike that trips a source's quarantine) leaves
// clock, plan and dispatcher untouched; a sample from an
// already-quarantined source is dropped silently and the current plan
// returned. With a store attached, the sample is written
// ahead to the WAL — validated or not; the log records inputs, so
// replaying it reproduces rejections and quarantine trips too — before
// anything else happens.
func (rt *Runtime) Ingest(s telemetry.Sample) (*joint.Plan, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()

	// The WAL cannot tell an empty observation slice from an absent one,
	// so neither can the runtime.
	if len(s.Uplinks) == 0 {
		s.Uplinks = nil
	}
	if len(s.Health) == 0 {
		s.Health = nil
	}
	rt.st.Seq++
	rt.st.Samples++
	if rt.store != nil {
		if err := rt.store.AppendEntry(WALEntry{Seq: rt.st.Seq, Sample: &s}); err != nil {
			return nil, err
		}
	}

	if rt.policy.QuarantineStrikes > 0 {
		if q := rt.st.Sources[s.Source]; q.Until > 0 {
			t := rt.sampleClock(&s)
			if t < q.Until {
				rt.cQDropped.Inc()
				return rt.disp.Current(), nil
			}
			q.Until = 0
			rt.stand(s.Source, q)
			rt.cQReadmit.Inc()
			rt.journal.Record(telemetry.Event{
				Time: t, Kind: EventQuarantineReadmit,
				Reason: fmt.Sprintf("source %q readmitted on probation", s.Source),
			})
		}
	}

	if err := rt.validate(&s); err != nil {
		rt.cRejected.Inc()
		if qerr := rt.strike(&s); qerr != nil {
			return nil, qerr
		}
		return nil, err
	}
	if q := rt.st.Sources[s.Source]; q.Strikes > 0 {
		q.Strikes = 0 // a valid sample clears the source's strikes
		rt.stand(s.Source, q)
	}
	rt.st.Clock = s.Time
	rt.cSamples.Inc()
	rt.gClock.Set(s.Time)

	// Fold the sample into the runtime's view of the environment.
	drifted := false
	maxRel := 0.0
	for i, r := range s.Uplinks {
		if r > 0 {
			drifted = true
			rt.st.Rates[i] = r
			if rel := rt.drift(i); rel > maxRel {
				maxRel = rel
			}
		}
	}
	if drifted {
		rt.hDrift.Observe(maxRel)
		rt.updateDriftGauges()
	}
	healthObserved := s.Health != nil
	if healthObserved {
		for i, up := range s.Health {
			rt.st.Down[i] = !up
		}
	}

	if rt.policy.NeverReplan || (!drifted && !healthObserved) {
		rt.cNoChange.Inc()
		rt.journal.Record(telemetry.Event{
			Time: s.Time, Kind: EventNoChange, Value: rt.disp.Current().Objective,
		})
		return rt.disp.Current(), nil
	}

	// Hysteresis: does this drift deserve a full replan, and may we afford
	// one now? A deadline-aborted attempt arms the same debounce a
	// completed replan does — retrying an over-budget replan on the very
	// next sample would thrash.
	deferred := telemetry.EventKind("")
	wantFull := drifted && maxRel >= rt.policy.RelChange
	if wantFull && rt.policy.MinInterval > 0 && s.Time-math.Max(rt.st.LastFull, rt.st.LastAbort) < rt.policy.MinInterval {
		wantFull, deferred = false, EventDeferredInterval
	}
	if wantFull && rt.policy.Budget > 0 {
		live := rt.st.FullTimes[:0]
		for _, ft := range rt.st.FullTimes {
			if ft > s.Time-rt.policy.Window {
				live = append(live, ft)
			}
		}
		rt.st.FullTimes = live
		if len(rt.st.FullTimes) >= rt.policy.Budget {
			wantFull, deferred = false, EventDeferredBudget
		}
	}

	if wantFull {
		var abort *joint.AbortedError
		var err error
		if dirty, nDirty := rt.dirtyShards(); rt.policy.DeltaReplan && nDirty > 0 &&
			float64(nDirty) <= rt.policy.deltaDirtyFracLimit()*float64(len(rt.st.Rates)) {
			abort, err = rt.deltaReplan(s.Time, maxRel, dirty, nDirty)
		} else {
			abort, err = rt.fullReplan(s.Time, maxRel)
		}
		if err != nil {
			return nil, err
		}
		if abort == nil {
			return rt.disp.Current(), nil
		}
		// Stale-plan fallback: the replan blew its deadline, so the
		// previous valid plan stays published, refreshed through the cheap
		// path so the observed rates and health still land.
		plan, err := rt.disp.Observe(s.Health, s.Uplinks)
		if err != nil {
			return nil, fmt.Errorf("serve: stale-plan refresh at t=%g: %w", s.Time, err)
		}
		rt.publish(plan)
		rt.journal.Record(telemetry.Event{
			Time: s.Time, Kind: EventAbortedReplan, Value: plan.Objective,
			Reason: fmt.Sprintf("replan budget %d exceeded at %d ops; stale plan kept", abort.Budget, abort.SurgeryOps),
		})
		return plan, nil
	}
	return rt.cheapRefresh(&s, deferred, maxRel)
}

// strike records a validation failure against the sample's source and
// trips its quarantine on the K-th consecutive one, returning the typed
// error for that tripping call only. No-op (nil) when quarantine is off.
func (rt *Runtime) strike(s *telemetry.Sample) error {
	if rt.policy.QuarantineStrikes <= 0 {
		return nil
	}
	q := rt.st.Sources[s.Source]
	q.Strikes++
	if q.Strikes < rt.policy.QuarantineStrikes {
		rt.stand(s.Source, q)
		return nil
	}
	t := rt.sampleClock(s)
	q = SourceState{Until: t + rt.policy.QuarantineProbation}
	rt.stand(s.Source, q)
	rt.cQuarantined.Inc()
	rt.journal.Record(telemetry.Event{
		Time: t, Kind: EventQuarantine, Value: float64(rt.policy.QuarantineStrikes),
		Reason: fmt.Sprintf("source %q muted until t=%g", s.Source, q.Until),
	})
	return &QuarantineError{Source: s.Source, Strikes: rt.policy.QuarantineStrikes, Until: q.Until}
}

// stand records src's quarantine standing; a clear standing removes src's
// entry, so the table always holds exactly what a snapshot stores.
func (rt *Runtime) stand(src string, q SourceState) {
	if q == (SourceState{}) {
		delete(rt.st.Sources, src)
		return
	}
	if rt.st.Sources == nil {
		rt.st.Sources = make(map[string]SourceState)
	}
	rt.st.Sources[src] = q
}

// sampleClock maps a possibly-malformed sample onto the virtual timeline:
// its own time when sane, the current clock otherwise (a NaN or regressed
// timestamp must not move quarantine deadlines backwards).
func (rt *Runtime) sampleClock(s *telemetry.Sample) float64 {
	if !math.IsNaN(s.Time) && !math.IsInf(s.Time, 0) && s.Time >= rt.st.Clock {
		return s.Time
	}
	return rt.st.Clock
}

// replanBudget converts the policy's virtual-time deadline into the
// planner's deterministic surgery-op budget, scaled by the current
// throttle. 0 = no deadline.
func (rt *Runtime) replanBudget() int64 {
	if rt.policy.ReplanDeadline <= 0 {
		return 0
	}
	b := int64(rt.policy.ReplanDeadline * DefaultPlannerOpsPerSec * rt.st.Throttle)
	if b < 1 {
		b = 1
	}
	return b
}

// SetPlannerThrottle scales the virtual planner speed the replan deadline
// is calibrated against: factor 0.1 means the planner runs at a tenth of
// its assumed ops/second (a CPU-starved control plane), shrinking the
// surgery-op budget accordingly. The change is a WAL-logged control
// mutation, so a crash-recovered runtime reapplies it at the same point in
// the sample stream — which is how the chaos harness makes "slow planner ×
// crash" deterministic.
func (rt *Runtime) SetPlannerThrottle(factor float64) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if math.IsNaN(factor) || factor <= 0 || factor > 1 {
		return fmt.Errorf("serve: planner throttle %g is outside (0, 1]", factor)
	}
	rt.st.Seq++
	if rt.store != nil {
		if err := rt.store.AppendEntry(WALEntry{Seq: rt.st.Seq, Throttle: factor}); err != nil {
			return err
		}
	}
	rt.st.Throttle = factor
	return nil
}

// frozenScenario freezes the runtime's scenario at the given per-server
// uplink rates (static links, everything else shared). Every plan the
// runtime installs is made against such a frozen view.
func (rt *Runtime) frozenScenario(rates []float64) *joint.Scenario {
	frozen := *rt.sc
	frozen.Servers = append([]joint.Server(nil), rt.sc.Servers...)
	frozen.Users = append([]joint.User(nil), rt.sc.Users...)
	for i := range frozen.Servers {
		orig := rt.sc.Servers[i].Link
		frozen.Servers[i].Link = netmodel.NewStatic(orig.Name(), rates[i], orig.RTT())
	}
	return &frozen
}

// planAt freezes the scenario at rates and plans it from scratch — the
// initial plan, every full replan and crash recovery's re-derivation, so
// the recovered plan is the lost one by construction. With Config.Frontier
// a fresh table set is registered for the frozen scenario first (its rates
// are new frontier keys); a failed plan puts the previous set back, since
// the published plan keeps its tables.
func (rt *Runtime) planAt(rates []float64) (*joint.Scenario, *joint.Plan, error) {
	frozen := rt.frozenScenario(rates)
	prevSet := rt.planner.Opt.Frontiers
	if rt.frontier {
		if err := rt.buildFrontiers(frozen); err != nil {
			return nil, nil, err
		}
	}
	plan, err := rt.planner.Plan(frozen)
	if err != nil {
		rt.planner.Opt.Frontiers = prevSet
		return nil, nil, err
	}
	return frozen, plan, nil
}

// install makes plan, made against frozen, the live plan: the dispatcher's
// new active AND base plan, instrumented, with the current health state
// reapplied, and published. It is the one way a plan goes live.
func (rt *Runtime) install(frozen *joint.Scenario, plan *joint.Plan) error {
	disp, err := joint.NewDispatcherWithPlan(frozen, rt.planner, plan)
	if err != nil {
		return err
	}
	disp.Instrument(rt.reg)
	if slices.Contains(rt.st.Down, true) {
		up := make([]bool, len(rt.st.Down))
		for i, dn := range rt.st.Down {
			up[i] = !dn
		}
		if _, err := disp.Observe(up, nil); err != nil {
			return fmt.Errorf("applying health: %w", err)
		}
	}
	rt.disp = disp
	rt.publish(disp.Current())
	return nil
}

// replan is the tail fullReplan and deltaReplan share: run plan under the
// policy's replan-deadline budget, install its result, and stamp it on the
// debounce clock and the budget window. A plan that would exceed the budget
// is abandoned deterministically and returned as the non-nil abort: the
// published plan stays, and the abort arms the same debounce and burns a
// budget-window slot, so a persistently over-budget environment degrades to
// the cheap path instead of thrashing on replan attempts. route names the
// caller in errors.
func (rt *Runtime) replan(now float64, route string, plan func() (*joint.Scenario, *joint.Plan, error)) (*joint.Plan, *joint.AbortedError, error) {
	rt.planner.Opt.SurgeryBudget = rt.replanBudget()
	frozen, p, err := plan()
	rt.planner.Opt.SurgeryBudget = 0
	if err == nil {
		err = rt.install(frozen, p)
	}
	if err != nil {
		var abort *joint.AbortedError
		if errors.As(err, &abort) {
			rt.st.LastAbort = now
			rt.st.FullTimes = append(rt.st.FullTimes, now)
			rt.cAborted.Inc()
			return nil, abort, nil
		}
		return nil, nil, fmt.Errorf("serve: %s replan at t=%g: %w", route, now, err)
	}
	rt.st.LastFull = now
	rt.st.FullTimes = append(rt.st.FullTimes, now)
	return p, nil, nil
}

// fullReplan rebuilds the deployment plan from scratch against the
// last-known uplink rates. On success (with a store attached) the new state
// is snapshotted and the WAL reset.
func (rt *Runtime) fullReplan(now, maxRel float64) (*joint.AbortedError, error) {
	_, abort, err := rt.replan(now, "full", func() (*joint.Scenario, *joint.Plan, error) { return rt.planAt(rt.st.Rates) })
	if err != nil || abort != nil {
		return abort, err
	}
	copy(rt.st.PlanRates, rt.st.Rates)
	rt.updateDriftGauges()
	rt.cFull.Inc()
	rt.journal.Record(telemetry.Event{
		Time: now, Kind: EventFullReplan, Value: rt.disp.Current().Objective,
		Reason: fmt.Sprintf("max uplink drift %.3g >= %.3g", maxRel, rt.policy.RelChange),
	})
	if rt.store != nil {
		// The base plan just changed; fold everything into a fresh
		// snapshot. Snapshot first, WAL reset second: a crash between the
		// two leaves entries the snapshot already folded, which recovery
		// skips by Seq.
		if err := rt.store.WriteSnapshot(rt.captureSnapshot()); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// drift is server s's cumulative relative drift: its last-known rate
// versus the rate its shard was last planned at.
func (rt *Runtime) drift(s int) float64 {
	return math.Abs(rt.st.Rates[s]-rt.st.PlanRates[s]) / rt.st.PlanRates[s]
}

// updateDriftGauges publishes each server's drift, which makes dirty-shard
// decisions observable.
func (rt *Runtime) updateDriftGauges() {
	for i := range rt.st.Rates {
		rt.gDriftSrv[i].Set(rt.drift(i))
	}
}

// dirtyShards computes the delta-replan dirty mask: every server whose
// drift reaches the policy's RelChange threshold. Cumulative, not
// per-sample: a shard that crept past the threshold over several
// sub-threshold observations is as stale as one that jumped there at once.
func (rt *Runtime) dirtyShards() ([]bool, int) {
	dirty := make([]bool, len(rt.st.Rates))
	n := 0
	for i := range rt.st.Rates {
		if rt.drift(i) >= rt.policy.RelChange {
			dirty[i] = true
			n++
		}
	}
	return dirty, n
}

// deltaReplan is the incremental counterpart of fullReplan: re-plan only
// the dirty shards, warm-started from the published plan, under the same
// deadline budget. Per-server plan rates advance only for the dirty shards
// (clean shards keep accruing their sub-threshold drift), and the decision
// is journaled with the dirty-shard set. Unlike fullReplan, NO snapshot is
// written: a delta plan is defined relative to its predecessor, so the
// recovery story is the WAL tail — replaying the samples since the last
// full boundary reproduces the whole delta chain bit for bit, which the
// kill/recover suite pins.
func (rt *Runtime) deltaReplan(now, maxRel float64, dirty []bool, nDirty int) (*joint.AbortedError, error) {
	frozen := rt.frozenScenario(rt.st.Rates)
	if rt.frontier && rt.planner.Opt.Frontiers != nil {
		// The dirty servers' drifted rates are new frontier keys; extend the
		// existing set in place (within its table budget) instead of
		// registering a new one, so clean shards keep the cells earlier
		// plans filled. The extension stays even if the replan aborts:
		// extra tables never change output.
		added := joint.ExtendFrontierSet(rt.planner.Opt.Frontiers, frozen, rt.planner.Opt, dirty)
		rt.reg.Counter("serve.frontier.extends").Inc()
		rt.reg.Counter("serve.frontier.extend_tables").Add(int64(added))
		rt.reg.Gauge("serve.frontier.tables").Set(float64(rt.planner.Opt.Frontiers.Len()))
	}
	prev := rt.disp.Current()
	plan, abort, err := rt.replan(now, "delta", func() (*joint.Scenario, *joint.Plan, error) {
		p, err := rt.planner.PlanDelta(frozen, prev, dirty)
		return frozen, p, err
	})
	if err != nil || abort != nil {
		return abort, err
	}
	for i, d := range dirty {
		if d {
			rt.st.PlanRates[i] = rt.st.Rates[i]
		}
	}
	rt.updateDriftGauges()
	rt.cDelta.Inc()
	rt.cDirty.Add(int64(nDirty))
	rt.hDeltaOps.Observe(float64(plan.SurgeryOps))
	rt.journal.Record(telemetry.Event{
		Time: now, Kind: EventDeltaReplan, Value: rt.disp.Current().Objective,
		Reason: fmt.Sprintf("max uplink drift %.3g >= %.3g; dirty shards %v", maxRel, rt.policy.RelChange, joint.DirtyServers(dirty)),
	})
	return nil, nil
}

// cheapRefresh routes the sample through the dispatcher's inexpensive
// path: evacuation/restore on health flips, surgery + allocation at pinned
// assignments for rate drift.
func (rt *Runtime) cheapRefresh(s *telemetry.Sample, deferred telemetry.EventKind, maxRel float64) (*joint.Plan, error) {
	plan, err := rt.disp.Observe(s.Health, s.Uplinks)
	if err != nil {
		return nil, fmt.Errorf("serve: refresh at t=%g: %w", s.Time, err)
	}
	rt.cCheap.Inc()
	kind := EventCheapRefresh
	reason := fmt.Sprintf("drift %.3g below threshold", maxRel)
	if deferred != "" {
		kind = deferred
		rt.cDeferred.Inc()
		reason = fmt.Sprintf("drift %.3g wanted full replan", maxRel)
	}
	rt.publish(plan)
	rt.journal.Record(telemetry.Event{Time: s.Time, Kind: kind, Value: plan.Objective, Reason: reason})
	return plan, nil
}

// buildFrontiers registers the Pareto-frontier surgery tables for sc and
// installs them on the runtime's planner (shared with its dispatcher). The
// tables start empty and keep what each plan fills, so later plans at the
// same rates pay for no cell twice. Cheap refreshes gain little: observed
// rates carry telemetry noise, so every refresh's server keys are new and
// fill tables private to that refresh.
func (rt *Runtime) buildFrontiers(sc *joint.Scenario) error {
	set, err := joint.BuildFrontierSet(sc, rt.planner.Opt, surgery.BuildOptions{Surgery: rt.planner.Opt.Surgery})
	if err != nil {
		return fmt.Errorf("building frontier tables: %w", err)
	}
	rt.planner.Opt.Frontiers = set
	rt.reg.Counter("serve.frontier.builds").Inc()
	rt.reg.Gauge("serve.frontier.tables").Set(float64(set.Len()))
	return nil
}

// publish mirrors the active plan into the gauges.
func (rt *Runtime) publish(plan *joint.Plan) {
	rt.gObjective.Set(plan.Objective)
	if plan.Feasible {
		rt.gFeasible.Set(1)
	} else {
		rt.gFeasible.Set(0)
	}
}

// validate is the ingestion boundary: malformed values and widths are
// rejected with *joint.BadObservationError before they can reach the
// dispatcher or perturb the runtime's state.
func (rt *Runtime) validate(s *telemetry.Sample) error {
	if math.IsNaN(s.Time) || math.IsInf(s.Time, 0) {
		return &joint.BadObservationError{Server: -1, Rate: s.Time, Field: "sample time"}
	}
	if s.Time < rt.st.Clock {
		return &joint.BadObservationError{
			Server: -1, Rate: s.Time, Field: "sample time",
			Reason: fmt.Sprintf("precedes the virtual clock %g", rt.st.Clock),
		}
	}
	n := len(rt.sc.Servers)
	width := func(field string, w int) error {
		return &joint.BadObservationError{Server: -1, Rate: float64(w), Field: field, Reason: fmt.Sprintf("does not match the %d servers", n)}
	}
	if s.Uplinks != nil && len(s.Uplinks) != n {
		return width("uplink rate count", len(s.Uplinks))
	}
	if s.Health != nil && len(s.Health) != n {
		return width("health state count", len(s.Health))
	}
	for i, r := range s.Uplinks {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return &joint.BadObservationError{Server: i, Rate: r}
		}
		if r < 0 {
			return &joint.BadObservationError{Server: i, Rate: r, Reason: "is negative"}
		}
	}
	return nil
}

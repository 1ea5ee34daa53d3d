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
	// set is registered at construction and on every full replan, and each
	// table keeps the cells every plan sharing it fills — delta replans and
	// cheap refreshes at drifted rates included, since a table answers every
	// link rate. Table counts land in the "serve.frontier.*" series. It
	// changes speed and the planner.frontier.* hit/miss split, never the
	// plan: without it every plan fills tables of its own.
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
	frozen, planner, plan, err := rt.planAt(rt.st.PlanRates, 0)
	if err == nil {
		err = rt.install(frozen, planner, plan, rt.st.Down)
	}
	if err != nil {
		return fmt.Errorf("serve: %s: %w", what, err)
	}
	rt.publish(rt.disp.Current())
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

// Ingest runs one telemetry sample through the control plane in one pass —
// log, mute, validate, decide, act, commit — and returns the now-active
// plan. With a store attached the sample is first written ahead to the WAL,
// validated or not, so replaying the log reproduces rejections and
// quarantine trips too. A quarantined source's sample is then dropped
// silently, the current plan returned, until probation readmits the source.
// Past that, nothing is written before the planner has answered: a sample
// that is malformed or that the planner or dispatcher refuses is rejected
// with *joint.BadObservationError (*QuarantineError on the strike that trips
// its source's quarantine), leaving clock, state, plan and journal untouched.
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
		return nil, rt.reject(&s, err)
	}
	next, d := rt.decide(&s)
	plan, err := rt.act(&s, &next, &d)
	if err != nil {
		return nil, rt.reject(&s, &joint.BadObservationError{
			Server: -1, Rate: s.Time, Field: "sample time", Reason: fmt.Sprintf("is refused by the planner (%s): %v", d.kind, err),
		})
	}
	return plan, rt.commit(&s, next, d, plan)
}

// decision is what one sample asks of the runtime: decide picks it, act
// carries it out (a replan over its deadline becomes an aborted one), commit
// records it as one journal event.
type decision struct {
	kind    telemetry.EventKind
	reason  string  // the journal event's Reason
	drifted bool    // the sample observed an uplink rate
	maxRel  float64 // the largest drift of an observed rate from its plan rate
	dirty   []bool  // delta replan: the shards to re-plan; nil otherwise
	ops     int64   // delta replan: the surgery ops the new plan scheduled
}

// decide folds s into a copy of the runtime's state — clock, observed
// uplinks, health, the budget window pruned to s's time — and returns it
// with the decision the policy makes for s. It writes nothing on the
// runtime.
func (rt *Runtime) decide(s *telemetry.Sample) (state, decision) {
	next := rt.st
	next.Rates = slices.Clone(rt.st.Rates)
	next.PlanRates = slices.Clone(rt.st.PlanRates)
	next.Down = slices.Clone(rt.st.Down)
	next.FullTimes = slices.Clone(rt.st.FullTimes)
	next.Clock = s.Time
	d := decision{kind: EventNoChange}
	for i, r := range s.Uplinks {
		if r > 0 {
			d.drifted = true
			next.Rates[i] = r
			if rel := next.drift(i); rel > d.maxRel {
				d.maxRel = rel
			}
		}
	}
	for i, up := range s.Health {
		next.Down[i] = !up
	}
	if rt.policy.NeverReplan || (!d.drifted && s.Health == nil) {
		return next, d
	}

	// Hysteresis: does this drift deserve a full replan, and may we afford
	// one now? A deadline-aborted attempt arms the same debounce a
	// completed replan does — retrying an over-budget replan on the very
	// next sample would thrash.
	d.kind, d.reason = EventCheapRefresh, fmt.Sprintf("drift %.3g below threshold", d.maxRel)
	wantFull := d.drifted && d.maxRel >= rt.policy.RelChange
	deferred := func(kind telemetry.EventKind) {
		wantFull = false
		d.kind, d.reason = kind, fmt.Sprintf("drift %.3g wanted full replan", d.maxRel)
	}
	if wantFull && rt.policy.MinInterval > 0 && s.Time-math.Max(next.LastFull, next.LastAbort) < rt.policy.MinInterval {
		deferred(EventDeferredInterval)
	}
	if wantFull && rt.policy.Budget > 0 {
		next.FullTimes = slices.DeleteFunc(next.FullTimes, func(ft float64) bool { return ft <= s.Time-rt.policy.Window })
		if len(next.FullTimes) >= rt.policy.Budget {
			deferred(EventDeferredBudget)
		}
	}
	if !wantFull {
		return next, d
	}
	d.kind, d.reason = EventFullReplan, fmt.Sprintf("max uplink drift %.3g >= %.3g", d.maxRel, rt.policy.RelChange)
	if !rt.policy.DeltaReplan {
		return next, d
	}
	// A delta replan re-plans every server whose cumulative drift reaches
	// RelChange: a shard that crept past the threshold over several
	// sub-threshold observations is as stale as one that jumped there.
	dirty := make([]bool, len(next.Rates))
	for i := range dirty {
		dirty[i] = next.drift(i) >= rt.policy.RelChange
	}
	if servers := joint.DirtyServers(dirty); len(servers) > 0 && float64(len(servers)) <= rt.policy.deltaDirtyFracLimit()*float64(len(dirty)) {
		d.kind, d.dirty = EventDeltaReplan, dirty
		d.reason += fmt.Sprintf("; dirty shards %v", servers)
	}
	return next, d
}

// act carries d out against next and returns the plan to publish: the one
// place Ingest calls the planner or the dispatcher. A full replan plans
// next.Rates from scratch, a delta replan re-plans d.dirty from the
// published plan, both under the replan budget; success installs the plan
// under next's health and stamps next's debounce clock, budget window and
// (dirty) plan rates. A replan over budget is abandoned deterministically
// and d becomes an aborted replan, which arms the same debounce and burns a
// budget slot, then joins the cheap refresh every other kind takes: the
// dispatcher's evacuation on health flips and surgery + allocation at pinned
// assignments for drift, on the stale plan.
func (rt *Runtime) act(s *telemetry.Sample, next *state, d *decision) (*joint.Plan, error) {
	if d.kind == EventNoChange {
		return rt.disp.Current(), nil
	}
	if d.kind == EventFullReplan || d.kind == EventDeltaReplan {
		var frozen *joint.Scenario
		planner := rt.planner
		var plan *joint.Plan
		var err error
		if d.dirty == nil {
			frozen, planner, plan, err = rt.planAt(next.Rates, rt.replanBudget())
		} else {
			frozen = rt.frozenScenario(next.Rates)
			budgeted := *rt.planner
			budgeted.Opt.SurgeryBudget = rt.replanBudget()
			plan, err = budgeted.PlanDelta(frozen, rt.disp.Current(), d.dirty)
		}
		if err == nil {
			err = rt.install(frozen, planner, plan, next.Down)
		}
		var abort *joint.AbortedError
		switch {
		case err == nil:
			next.LastFull = s.Time
			next.FullTimes = append(next.FullTimes, s.Time)
			for i := range next.PlanRates {
				if d.dirty == nil || d.dirty[i] {
					next.PlanRates[i] = next.Rates[i]
				}
			}
			d.ops = plan.SurgeryOps
			return rt.disp.Current(), nil
		case errors.As(err, &abort):
			next.LastAbort = s.Time
			next.FullTimes = append(next.FullTimes, s.Time)
			d.kind = EventAbortedReplan
			d.reason = fmt.Sprintf("replan budget %d exceeded at %d ops; stale plan kept", abort.Budget, abort.SurgeryOps)
		default:
			return nil, err
		}
	}
	return rt.disp.Observe(s.Health, s.Uplinks)
}

// commit makes next the runtime's state, clears the source's strikes and
// records d once: sample and clock series, drift histogram and per-server
// drift gauges (against the plan rates act moved), d's counters, the
// published plan, one journal event, and after a full replan a snapshot. A
// delta replan writes none: its plan is relative to its predecessor, so
// recovery replays the WAL tail since the last full boundary instead.
func (rt *Runtime) commit(s *telemetry.Sample, next state, d decision, plan *joint.Plan) error {
	rt.st = next
	if q := rt.st.Sources[s.Source]; q.Strikes > 0 {
		q.Strikes = 0 // a valid sample clears the source's strikes
		rt.stand(s.Source, q)
	}
	rt.cSamples.Inc()
	rt.gClock.Set(s.Time)
	if d.drifted {
		rt.hDrift.Observe(d.maxRel)
		for i := range rt.st.Rates {
			rt.gDriftSrv[i].Set(rt.st.drift(i))
		}
	}
	switch d.kind {
	case EventNoChange:
		rt.cNoChange.Inc()
	case EventCheapRefresh:
		rt.cCheap.Inc()
	case EventDeferredInterval, EventDeferredBudget:
		rt.cCheap.Inc()
		rt.cDeferred.Inc()
	case EventFullReplan:
		rt.cFull.Inc()
	case EventDeltaReplan:
		rt.cDelta.Inc()
		rt.cDirty.Add(int64(len(joint.DirtyServers(d.dirty))))
		rt.hDeltaOps.Observe(float64(d.ops))
	case EventAbortedReplan:
		rt.cAborted.Inc()
	}
	rt.publish(plan)
	rt.journal.Record(telemetry.Event{Time: s.Time, Kind: d.kind, Value: plan.Objective, Reason: d.reason})
	if d.kind == EventFullReplan && rt.store != nil {
		// The base plan just changed; fold everything into a fresh
		// snapshot. Snapshot first, WAL reset second: a crash between the
		// two leaves entries the snapshot already folded, which recovery
		// skips by Seq.
		return rt.store.WriteSnapshot(rt.captureSnapshot())
	}
	return nil
}

// reject refuses s with err: it counts the rejection and, with quarantine
// on, strikes the sample's source, returning *QuarantineError instead of err
// on the strike that trips its quarantine.
func (rt *Runtime) reject(s *telemetry.Sample, err error) error {
	rt.cRejected.Inc()
	if rt.policy.QuarantineStrikes <= 0 {
		return err
	}
	q := rt.st.Sources[s.Source]
	q.Strikes++
	if q.Strikes < rt.policy.QuarantineStrikes {
		rt.stand(s.Source, q)
		return err
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

// planAt freezes the scenario at rates and plans it from scratch within
// budget surgery ops (0 = none) — the initial plan, every full replan and
// crash recovery's re-derivation, so the recovered plan is the lost one by
// construction. It plans on a copy of the runtime's planner, returned with
// the budget cleared for install to keep. With Config.Frontier the copy
// carries a fresh table set registered for the frozen scenario; the tables
// start empty and keep what each plan fills, and since a table answers every
// link rate, the delta replans and cheap refreshes that follow at drifted
// rates read and fill the same tables. The set is fresh per full replan, not
// carried across: crash recovery re-derives the last full replan on a fresh
// set, and only then does the recovered planner.frontier.* split match the
// live one.
func (rt *Runtime) planAt(rates []float64, budget int64) (*joint.Scenario, *joint.Planner, *joint.Plan, error) {
	frozen := rt.frozenScenario(rates)
	planner := *rt.planner
	if rt.frontier {
		set, err := joint.BuildFrontierSet(frozen, planner.Opt, surgery.BuildOptions{Surgery: planner.Opt.Surgery})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("building frontier tables: %w", err)
		}
		planner.Opt.Frontiers = set
	}
	planner.Opt.SurgeryBudget = budget
	plan, err := planner.Plan(frozen)
	if err != nil {
		return nil, nil, nil, err
	}
	planner.Opt.SurgeryBudget = 0
	return frozen, &planner, plan, nil
}

// install makes plan, made against frozen by planner, the dispatcher's new
// active AND base plan, instrumented, with the health down describes
// reapplied, and planner the runtime's (counting its table set when it is a
// new one). It is the one way a plan goes live; the caller publishes it.
func (rt *Runtime) install(frozen *joint.Scenario, planner *joint.Planner, plan *joint.Plan, down []bool) error {
	disp, err := joint.NewDispatcherWithPlan(frozen, planner, plan)
	if err != nil {
		return err
	}
	disp.Instrument(rt.reg)
	if slices.Contains(down, true) {
		up := make([]bool, len(down))
		for i, dn := range down {
			up[i] = !dn
		}
		if _, err := disp.Observe(up, nil); err != nil {
			return fmt.Errorf("applying health: %w", err)
		}
	}
	if set := planner.Opt.Frontiers; set != rt.planner.Opt.Frontiers {
		rt.reg.Counter("serve.frontier.builds").Inc()
		rt.reg.Gauge("serve.frontier.tables").Set(float64(set.Len()))
	}
	rt.planner, rt.disp = planner, disp
	return nil
}

// drift is server s's cumulative relative drift: its last-known rate
// versus the rate its shard was last planned at.
func (st *state) drift(s int) float64 {
	return math.Abs(st.Rates[s]-st.PlanRates[s]) / st.PlanRates[s]
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

// validate is the ingestion boundary: malformed values and widths, and
// uplink rates no plan can be made at, are rejected with
// *joint.BadObservationError before they can reach the dispatcher or
// perturb the runtime's state.
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
		if r > 0 && math.IsInf(planningMean(r, rt.sc.PlanningHorizon), 0) {
			return &joint.BadObservationError{Server: i, Rate: r, Reason: "overflows the planning-time mean"}
		}
	}
	return nil
}

// planningMean is the mean uplink the planner reads from a link frozen at r
// bps over the planning horizon h (0 = the planner's default): what the
// frozen scenario's PlanningRate returns. A rate whose mean overflows is one
// no plan can be made at.
func planningMean(r, h float64) float64 {
	probe := joint.Scenario{PlanningHorizon: h, Servers: []joint.Server{{Link: netmodel.NewStatic("", r, 0)}}}
	return probe.PlanningRate(0)
}

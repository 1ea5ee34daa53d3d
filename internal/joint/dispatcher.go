package joint

import (
	"fmt"
	"math"
	"slices"

	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/telemetry"
)

// Dispatcher is the online layer: it holds the current plan and re-runs the
// cheap planner steps (surgery + allocation, keeping assignments) whenever
// the observed environment drifts — the runtime companion to the offline
// block-coordinate planner. Experiment E13 drives it across a fading trace.
//
// Beyond drift, the dispatcher is the system's failure-recovery controller
// (experiment E20): Observe evacuates users off unreachable servers
// through the same assignment machinery, falls back to fully local surgery
// plans when no server is reachable, sheds the lowest-weight users to local
// execution when post-failure load makes deadlines infeasible, and restores
// the pristine optimal plan once every server reports healthy.
type Dispatcher struct {
	sc      *Scenario
	planner *Planner
	plan    *Plan
	base    *Plan  // pristine construction-time plan, restored on recovery
	down    []bool // per-server: true while the last health probe said unreachable
	health  HealthReport
	metrics *telemetry.Registry // nil until Instrument
}

// BadObservationError reports a rejected telemetry observation: a malformed
// observed value would poison every subsequent planning step, so the
// consumer (the dispatcher, or the serve.Runtime ingestion boundary in
// front of it) refuses it and keeps its current plan. The zero Field and
// Reason describe the dispatcher's own uplink-rate check; the control plane
// fills them in for its wider validation (negative rates, bad sample
// times).
type BadObservationError struct {
	// Server is the offending server index, or -1 when the value is not
	// server-scoped (e.g. a sample timestamp).
	Server int
	// Rate is the rejected value.
	Rate float64
	// Field names what the value is; empty means "uplink rate".
	Field string
	// Reason says why it was rejected; empty means "is not finite".
	Reason string
}

// Error implements error.
func (e *BadObservationError) Error() string {
	field := e.Field
	if field == "" {
		field = "uplink rate"
	}
	reason := e.Reason
	if reason == "" {
		reason = "is not finite"
	}
	if e.Server < 0 {
		return fmt.Sprintf("joint: observed %s %g %s", field, e.Rate, reason)
	}
	return fmt.Sprintf("joint: observed %s %g for server %d %s", field, e.Rate, e.Server, reason)
}

// HealthReport summarizes what the last observation did.
type HealthReport struct {
	// Down mirrors the health state the report was computed under.
	Down []bool
	// Evacuated counts users moved off an unreachable server.
	Evacuated int
	// LocalFallback counts users now executing fully on-device because no
	// server was reachable for them.
	LocalFallback int
	// Shed counts users moved to local execution by admission control
	// (deadlines infeasible under post-failure load).
	Shed int
	// Degraded lists users left assigned to an unreachable server because
	// neither another server nor local execution could hold their model;
	// their tasks will fail until recovery.
	Degraded []int
	// Restored is true when the observation returned the dispatcher to
	// its pristine base plan (every server healthy again).
	Restored bool
}

// NewDispatcher plans the scenario and returns the running dispatcher.
func NewDispatcher(sc *Scenario, planner *Planner) (*Dispatcher, error) {
	plan, err := planner.Plan(sc)
	if err != nil {
		return nil, err
	}
	return NewDispatcherWithPlan(sc, planner, plan)
}

// NewDispatcherWithPlan builds a dispatcher around an externally produced
// plan instead of planning the scenario itself — the control plane's one
// install path, whether the plan is its initial plan, a full or delta
// replan, or crash recovery's re-derivation. plan becomes both the active
// and the pristine base plan; planner serves future Observe rounds.
func NewDispatcherWithPlan(sc *Scenario, planner *Planner, plan *Plan) (*Dispatcher, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if plan == nil || len(plan.Decisions) != len(sc.Users) {
		got := 0
		if plan != nil {
			got = len(plan.Decisions)
		}
		return nil, fmt.Errorf("joint: plan has %d decisions for %d users", got, len(sc.Users))
	}
	return &Dispatcher{
		sc:      sc,
		planner: planner,
		plan:    clonePlan(plan),
		base:    clonePlan(plan),
		down:    make([]bool, len(sc.Servers)),
	}, nil
}

// Current returns the active plan.
func (d *Dispatcher) Current() *Plan { return d.plan }

// Health returns a copy of the report of the most recent observation.
func (d *Dispatcher) Health() HealthReport {
	h := d.health
	h.Down = slices.Clone(h.Down)
	return h
}

// Instrument attaches a telemetry registry: every subsequent observation
// updates the "dispatcher.*" counter/gauge series (observations, evacuated,
// shed, local_fallback, degraded, restores, objective). The HealthReport
// accessors keep working unchanged — they are the per-observation view of
// the same tallies. Instrumentation never changes dispatch decisions.
func (d *Dispatcher) Instrument(reg *telemetry.Registry) { d.metrics = reg }

// record publishes one observation's outcome to the attached registry.
func (d *Dispatcher) record(report *HealthReport, plan *Plan) {
	if d.metrics == nil {
		return
	}
	d.metrics.Counter("dispatcher.observations").Inc()
	d.metrics.Counter("dispatcher.evacuated").Add(int64(report.Evacuated))
	d.metrics.Counter("dispatcher.shed").Add(int64(report.Shed))
	d.metrics.Counter("dispatcher.local_fallback").Add(int64(report.LocalFallback))
	d.metrics.Counter("dispatcher.degraded").Add(int64(len(report.Degraded)))
	if report.Restored {
		d.metrics.Counter("dispatcher.restores").Inc()
	}
	d.metrics.Gauge("dispatcher.objective").Set(plan.Objective)
}

// Observe ingests a health probe (serverUp[s]: server s reachable; nil
// keeps the current state) and observed uplink rates (ratesBps[s] replaces
// server s's planning-time rate; nil or a non-positive entry keeps it; NaN
// or ±Inf is a *BadObservationError), then replans surgery + allocation on
// the surviving assignment: evacuation, local fallback and shedding as the
// type describes. With every server up and no rate drifted it restores the
// pristine plan. The health record changes only together with the plan
// Observe returns: an observation that fails leaves plan, health and
// report as they were.
func (d *Dispatcher) Observe(serverUp []bool, ratesBps []float64) (*Plan, error) {
	if serverUp != nil && len(serverUp) != len(d.sc.Servers) {
		return nil, fmt.Errorf("joint: observed %d health states for %d servers", len(serverUp), len(d.sc.Servers))
	}
	if ratesBps != nil && len(ratesBps) != len(d.sc.Servers) {
		return nil, fmt.Errorf("joint: observed %d uplink rates for %d servers", len(ratesBps), len(d.sc.Servers))
	}
	for s, r := range ratesBps {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, &BadObservationError{Server: s, Rate: r}
		}
	}
	report := HealthReport{Down: slices.Clone(d.down)}
	for s, up := range serverUp {
		report.Down[s] = !up
	}
	anyDown := slices.Contains(report.Down, true)
	drifted := slices.ContainsFunc(ratesBps, func(r float64) bool { return r > 0 })
	if !anyDown && !drifted {
		// Full recovery with no rate drift: hand back the pristine plan
		// rather than re-deriving it from equal shares.
		d.plan = clonePlan(d.base)
		report.Restored = true
		d.down, d.health = report.Down, report
		d.record(&report, d.plan)
		return d.plan, nil
	}

	opt := d.planner.opts()
	// The observe path is the cheap two-round refresh, never the full
	// replan the deadline budget bounds; a budget configured for Plan must
	// not leak in here and abort a failover.
	opt.SurgeryBudget = 0
	st := newState(d.sc, opt, buildUserSoA(d.sc))
	st.seedGreedy()
	d.assignWithHealth(st, &report)
	st.equalShares()
	for s, r := range ratesBps {
		if r > 0 {
			st.uplink[s] = r
		}
	}
	// Two cheap rounds: surgery -> alloc -> surgery -> alloc.
	for i := 0; i < 2; i++ {
		if err := st.surgeryStep(); err != nil {
			return nil, err
		}
		st.allocStep()
	}
	if anyDown {
		// Admission control: the fault may have concentrated load beyond
		// what deadlines allow; shed the cheapest users to local execution
		// until the remainder is feasible.
		shed, err := st.shedStep()
		if err != nil {
			return nil, err
		}
		report.Shed = shed
		report.LocalFallback += shed
	}
	suffix := "+online"
	if anyDown {
		suffix = "+failover"
	}
	d.plan = &Plan{
		Decisions:   st.ds,
		Objective:   st.objectiveNow(),
		Feasible:    st.feasible,
		Iterations:  2,
		PlannerName: d.planner.Name() + suffix,
	}
	st.stampCounters(d.plan)
	d.down, d.health = report.Down, report
	d.record(&report, d.plan)
	return d.plan, nil
}

// assignWithHealth rebuilds st's user-to-server assignment under the
// health state report.Down. Each user prefers its pristine (base-plan)
// server, then its current server, then — if both are unreachable —
// evacuates to the reachable server with the least normalized load, then to
// fully local execution if its device can hold the model, and as a last
// resort stays on its unreachable server (recorded as Degraded). Iteration
// is in user order, so the assignment is deterministic.
func (d *Dispatcher) assignWithHealth(st *state, report *HealthReport) {
	sc := d.sc
	reachable := func(s int) bool { return s >= 0 && s < len(sc.Servers) && !report.Down[s] }
	for s := range st.assigned {
		st.assigned[s] = st.assigned[s][:0]
	}
	load := make([]float64, len(sc.Servers))
	work := func(ui int) float64 { return st.hot.work[ui] }
	for ui := range sc.Users {
		prefer := d.base.Decisions[ui].Server
		cur := d.plan.Decisions[ui].Server
		target := -1
		switch {
		case reachable(prefer):
			target = prefer
		case reachable(cur):
			target = cur
		case prefer < 0 && cur < 0:
			target = -1 // local by design
		default:
			// Evacuate: least normalized pending load among reachable
			// servers, matching the planner's initial-assignment rule.
			best, bestLoad := -1, math.Inf(1)
			for s := range sc.Servers {
				if !reachable(s) {
					continue
				}
				if l := load[s] / sc.Servers[s].Profile.PeakFLOPS; l < bestLoad {
					best, bestLoad = s, l
				}
			}
			u := &sc.Users[ui]
			switch {
			case best >= 0:
				target = best
			case u.Device.FitsModel(u.Model) && localViable(st, ui):
				target = -1
				report.LocalFallback++
			default:
				// Nowhere to go — the model does not fit (or cannot keep
				// up with its arrival rate) on-device. Stay put; tasks
				// will fail until the server recovers. Record the
				// degradation honestly.
				if cur >= 0 {
					target = cur
				} else {
					target = prefer
				}
				report.Degraded = append(report.Degraded, ui)
			}
		}
		if cur >= 0 && report.Down[cur] && target != cur {
			report.Evacuated++
		}
		st.ds[ui].Server = target
		if target >= 0 {
			st.assigned[target] = append(st.assigned[target], ui)
			load[target] += work(ui)
		}
	}
}

// localViable reports whether user ui has any feasible fully-local
// surgery plan (device memory, stability at the arrival rate, and accuracy
// floor all satisfiable). It probes by optimizing the user in a
// server-less environment; on success the resulting local plan is already
// installed, on failure the previous decision is restored.
func localViable(st *state, ui int) bool {
	prev := st.ds[ui]
	st.ds[ui].Server = -1
	st.ds[ui].ComputeShare, st.ds[ui].BandwidthShare = 0, 0
	if err := st.refreshUser(ui); err != nil {
		st.ds[ui] = prev
		return false
	}
	return true
}

// ObserveWindow is a convenience that samples each server's mean link rate
// over [t, t+window) from the scenario's own links and replans against it —
// the pattern the epoch-driven experiments use.
func (d *Dispatcher) ObserveWindow(t, window float64) (*Plan, error) {
	rates := make([]float64, len(d.sc.Servers))
	for s := range d.sc.Servers {
		rates[s] = netmodel.WindowRate(d.sc.Servers[s].Link, t, window)
	}
	return d.Observe(nil, rates)
}

// clonePlan deep-copies the slices a caller could otherwise mutate through
// the returned plan.
func clonePlan(p *Plan) *Plan {
	c := *p
	c.Decisions = append([]Decision(nil), p.Decisions...)
	c.Trajectory = append([]float64(nil), p.Trajectory...)
	return &c
}

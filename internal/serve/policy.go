package serve

import (
	"fmt"
	"math"
)

// Policy is the runtime's replanning hysteresis: it decides when an
// ingested telemetry sample is worth a *full* replan (a fresh
// block-coordinate optimization, including server reassignment) versus the
// dispatcher's cheap refresh path (surgery + allocation at pinned
// assignments, plus evacuation on health flips). Every threshold is over
// virtual trace time — the policy never reads a wall clock.
type Policy struct {
	// RelChange is the minimum relative change of any server's observed
	// uplink rate — against the rates the current full plan was computed
	// at — that requests a full replan. 0 requests one on every uplink
	// observation (the replan-always policy).
	RelChange float64
	// MinInterval is the debounce: full replans are at least this many
	// virtual seconds apart. 0 disables the debounce.
	MinInterval float64
	// Budget caps full replans inside any trailing Window seconds; 0 means
	// unlimited. A drift that arrives over budget falls back to the cheap
	// refresh path and is journaled as deferred.
	Budget int
	// Window is the trailing budget window in seconds (only meaningful
	// with Budget > 0).
	Window float64
	// NeverReplan pins the initial plan forever: samples are validated and
	// metered but trigger neither full replans nor cheap refreshes — the
	// static-deployment control arm.
	NeverReplan bool
	// ReplanDeadline bounds how long a full replan may run, in virtual
	// seconds of planner work: the planner is granted a surgery-op budget of
	// ReplanDeadline × DefaultPlannerOpsPerSec and aborts deterministically when a
	// replan would exceed it; the previous valid plan stays published and
	// the abort is journaled (feeding the MinInterval debounce). 0 disables
	// the deadline. The budget is over scheduled planner work, never wall
	// time, so a deadline abort replays bit-identically.
	ReplanDeadline float64
	// QuarantineStrikes is how many consecutive validation failures from
	// one telemetry source trip its quarantine: further samples from the
	// source are dropped (counted, not erroring) until readmission. 0
	// disables quarantine. A valid sample resets the source's strikes.
	QuarantineStrikes int
	// QuarantineProbation is how many virtual seconds a quarantined source
	// stays muted before it is readmitted on probation. Required positive
	// when QuarantineStrikes > 0.
	QuarantineProbation float64
	// DeltaReplan routes qualifying full-replan requests through the
	// incremental delta planner instead: only the shards whose cumulative
	// uplink drift (versus the rates they were last planned at) reaches
	// RelChange are re-planned, warm-started from the published plan, with
	// reconciliation scoped to the shards migrations actually touch. Delta
	// replans share the full-replan hysteresis entirely — they pass the
	// same RelChange/MinInterval/Budget gates, arm the same debounce, burn
	// the same budget-window slots, and run under the same ReplanDeadline
	// op budget — so enabling this flag changes replan cost, never replan
	// cadence. Off by default: every replan is a full re-solve.
	DeltaReplan bool
	// DeltaMaxDirtyFrac caps the fraction of servers that may be dirty for
	// a delta replan to still be worthwhile; drift wider than this falls
	// back to a full replan (re-planning most shards incrementally costs
	// about as much as a full solve and forgoes its fresh global
	// assignment). 0 means the default 0.5; only meaningful with
	// DeltaReplan.
	DeltaMaxDirtyFrac float64
}

// DefaultPlannerOpsPerSec calibrates ReplanDeadline: how many surgery
// optimizations the planner is assumed to schedule per virtual second.
const DefaultPlannerOpsPerSec = 1000

// AlwaysReplan returns the policy that fully replans on every uplink
// observation — the upper-bound (and most expensive) control arm.
func AlwaysReplan() Policy { return Policy{} }

// NeverReplan returns the policy that never touches the initial plan — the
// lower-bound control arm.
func NeverReplan() Policy { return Policy{NeverReplan: true} }

// Hysteresis returns the default production policy: full replans only on
// >= 20% uplink drift, debounced to one per 25 s, at most 3 per trailing
// 60 s; everything else rides the cheap refresh path.
func Hysteresis() Policy {
	return Policy{RelChange: 0.2, MinInterval: 25, Budget: 3, Window: 60}
}

// Delta returns Hysteresis with its replans routed through the incremental
// delta planner: the same cadence at a lower cost per replan.
func Delta() Policy {
	p := Hysteresis()
	p.DeltaReplan = true
	return p
}

// Robust returns the policy with every robustness guard armed: full replans
// on >= 20% drift, debounced to one per 10 s, at most 4 per trailing 60 s,
// each bounded by a 2 s replan deadline; a telemetry source that fails
// validation 3 times in a row is muted for 60 s.
func Robust() Policy {
	return Policy{
		RelChange: 0.2, MinInterval: 10, Budget: 4, Window: 60,
		ReplanDeadline: 2, QuarantineStrikes: 3, QuarantineProbation: 60,
	}
}

// deltaDirtyFracLimit resolves the DeltaMaxDirtyFrac default.
func (p Policy) deltaDirtyFracLimit() float64 {
	if p.DeltaMaxDirtyFrac > 0 {
		return p.DeltaMaxDirtyFrac
	}
	return 0.5
}

// Validate rejects non-finite or negative policy parameters.
func (p Policy) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("serve: policy %s %g is not a non-negative finite number", name, v)
		}
		return nil
	}
	if err := check("RelChange", p.RelChange); err != nil {
		return err
	}
	if err := check("MinInterval", p.MinInterval); err != nil {
		return err
	}
	if err := check("Window", p.Window); err != nil {
		return err
	}
	if err := check("ReplanDeadline", p.ReplanDeadline); err != nil {
		return err
	}
	if err := check("QuarantineProbation", p.QuarantineProbation); err != nil {
		return err
	}
	if p.Budget < 0 {
		return fmt.Errorf("serve: policy Budget %d is negative", p.Budget)
	}
	if p.Budget > 0 && p.Window <= 0 {
		return fmt.Errorf("serve: policy Budget %d needs a positive Window", p.Budget)
	}
	if p.QuarantineStrikes < 0 {
		return fmt.Errorf("serve: policy QuarantineStrikes %d is negative", p.QuarantineStrikes)
	}
	if p.QuarantineStrikes > 0 && p.QuarantineProbation <= 0 {
		return fmt.Errorf("serve: policy QuarantineStrikes %d needs a positive QuarantineProbation", p.QuarantineStrikes)
	}
	if math.IsNaN(p.DeltaMaxDirtyFrac) || math.IsInf(p.DeltaMaxDirtyFrac, 0) || p.DeltaMaxDirtyFrac < 0 || p.DeltaMaxDirtyFrac > 1 {
		return fmt.Errorf("serve: policy DeltaMaxDirtyFrac %g is outside [0, 1]", p.DeltaMaxDirtyFrac)
	}
	return nil
}

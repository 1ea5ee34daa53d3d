// Package joint implements the paper's primary contribution: joint
// optimization of model surgery and resource allocation in a heterogeneous
// edge cluster. A block-coordinate planner alternates three monotone steps
// — per-user surgery (package surgery), per-server convex resource
// allocation (package alloc), and marginal-gain server reassignment — each
// of which never increases the weighted-latency objective, so the iteration
// converges; experiment E10 plots the trajectory.
package joint

import (
	"fmt"
	"math"

	"edgesurgeon/internal/dnn"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// User describes one inference application instance at the edge.
type User struct {
	// Name labels the user in tables and traces.
	Name string
	// Model is the user's DNN workload.
	Model *dnn.Model
	// Device is the user's end device.
	Device *hardware.Profile
	// Rate is the mean request rate in tasks/second.
	Rate float64
	// ProvisionRate, when positive, is the rate the planner provisions
	// stability and deadline bounds for instead of Rate — set it above
	// Rate to absorb bursty (e.g. MMPP) arrivals. Workload generation
	// always uses Rate.
	ProvisionRate float64
	// TxCompression scales the bytes sent across the partition boundary
	// (activation quantization/compression before transfer); 0 means 1
	// (no compression).
	TxCompression float64
	// Deadline is the per-task latency SLO in seconds (0 = none).
	Deadline float64
	// Weight is the user's priority in the objective (<= 0 means 1).
	Weight float64
	// MinAccuracy is the user's expected-accuracy floor (0 = none).
	MinAccuracy float64
	// Difficulty is the user's input-difficulty distribution.
	Difficulty workload.DifficultyKind
	// Arrivals selects the arrival process used when simulating.
	Arrivals workload.ArrivalKind
	// BurstFactor parameterizes MMPP arrivals.
	BurstFactor float64
	// Seed fixes the user's workload randomness in simulation.
	Seed int64
}

func (u *User) weight() float64 {
	if u.Weight <= 0 {
		return 1
	}
	return u.Weight
}

// planningRate returns the rate the planner provisions for.
func (u *User) planningRate() float64 {
	if u.ProvisionRate > 0 {
		return u.ProvisionRate
	}
	return u.Rate
}

// Server describes one edge server and the uplink its users share.
type Server struct {
	Name    string
	Profile *hardware.Profile
	Link    netmodel.Link
	// RTT is the device-server round trip in seconds.
	RTT float64
}

// Scenario is a complete planning problem.
type Scenario struct {
	Users   []User
	Servers []Server
	// Curves calibrates exit behaviour for every user (zero value means
	// surgery.DefaultCurves).
	Curves surgery.ExitCurves
	// PlanningHorizon is the window over which time-varying link rates
	// are averaged for planning (default 60 s).
	PlanningHorizon float64
}

// Validate checks scenario consistency. Every rejection names the
// offending user or server index so a malformed generated scenario is
// diagnosable from the error alone.
func (sc *Scenario) Validate() error {
	if len(sc.Users) == 0 {
		return fmt.Errorf("joint: scenario has no users")
	}
	if bad(sc.PlanningHorizon) || sc.PlanningHorizon < 0 {
		return fmt.Errorf("joint: planning horizon %g is not a non-negative finite number", sc.PlanningHorizon)
	}
	for i, u := range sc.Users {
		if u.Model == nil || u.Device == nil {
			return fmt.Errorf("joint: user %d (%s) missing model or device", i, u.Name)
		}
		if bad(u.Rate) || u.Rate < 0 {
			return fmt.Errorf("joint: user %d (%s) rate %g is not a non-negative finite number", i, u.Name, u.Rate)
		}
		if bad(u.ProvisionRate) || u.ProvisionRate < 0 {
			return fmt.Errorf("joint: user %d (%s) provision rate %g is not a non-negative finite number", i, u.Name, u.ProvisionRate)
		}
		if bad(u.Deadline) || u.Deadline < 0 {
			return fmt.Errorf("joint: user %d (%s) deadline %g is not a non-negative finite number", i, u.Name, u.Deadline)
		}
		if bad(u.Weight) {
			return fmt.Errorf("joint: user %d (%s) weight %g is not finite", i, u.Name, u.Weight)
		}
		if bad(u.MinAccuracy) || u.MinAccuracy < 0 || u.MinAccuracy > 1 {
			return fmt.Errorf("joint: user %d (%s) accuracy floor %g is outside [0, 1]", i, u.Name, u.MinAccuracy)
		}
		if bad(u.TxCompression) || u.TxCompression < 0 {
			return fmt.Errorf("joint: user %d (%s) tx compression %g is not a non-negative finite number", i, u.Name, u.TxCompression)
		}
	}
	for i, s := range sc.Servers {
		if s.Profile == nil {
			return fmt.Errorf("joint: server %d (%s) missing profile", i, s.Name)
		}
		if !s.Profile.Class.IsServer() {
			return fmt.Errorf("joint: server %d (%s) uses non-server profile %s", i, s.Name, s.Profile.Name)
		}
		if bad(s.Profile.PeakFLOPS) || s.Profile.PeakFLOPS <= 0 {
			return fmt.Errorf("joint: server %d (%s) capacity %g FLOPS is not a positive finite number", i, s.Name, s.Profile.PeakFLOPS)
		}
		if s.Link == nil {
			return fmt.Errorf("joint: server %d (%s) missing link", i, s.Name)
		}
		if r := sc.meanUplink(i); bad(r) || r <= 0 {
			return fmt.Errorf("joint: server %d (%s) mean uplink %g bps is not a positive finite number", i, s.Name, r)
		}
		if bad(s.RTT) || s.RTT < 0 {
			return fmt.Errorf("joint: server %d (%s) RTT %g is not a non-negative finite number", i, s.Name, s.RTT)
		}
	}
	return nil
}

// bad reports a NaN or ±Inf field value.
func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func (sc *Scenario) horizon() float64 {
	if sc.PlanningHorizon > 0 {
		return sc.PlanningHorizon
	}
	return 60
}

// meanUplink returns server s's planning-time uplink rate.
func (sc *Scenario) meanUplink(s int) float64 {
	return netmodel.MeanRate(sc.Servers[s].Link, sc.horizon())
}

// Decision is the planner's output for one user.
type Decision struct {
	Plan surgery.Plan
	Eval surgery.Eval
	// Server is the assigned server index, or -1 for device-only.
	Server int
	// ComputeShare and BandwidthShare are the allocated fractions on the
	// assigned server and its uplink.
	ComputeShare, BandwidthShare float64
}

// Latency returns the decision's expected latency at its shares:
// Eval.LatencyAt, read through the pointer — the objective sums call this per
// user per candidate move, and LatencyAt's value receiver copies the Eval.
func (d *Decision) Latency() float64 {
	l := d.Eval.FixedSec
	if d.Eval.ServerSec > 0 {
		l += d.Eval.ServerSec / orOne(d.ComputeShare)
	}
	if d.Eval.TxSec > 0 {
		l += d.Eval.TxSec / orOne(d.BandwidthShare)
	}
	return l
}

func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// Plan is a complete deployment decision for a scenario.
type Plan struct {
	Decisions []Decision
	// Objective is the weighted sum of expected latencies.
	Objective float64
	// Feasible reports whether all deadline/stability constraints were
	// satisfiable.
	Feasible bool
	// Iterations is the number of block-coordinate rounds executed. On the
	// hierarchical sharded path it is the deepest shard's round count plus
	// the reconciliation rounds that ran on top.
	Iterations int
	// Trajectory records the objective after every round (experiment E10).
	// On the sharded path it starts at the objective of the shards converged
	// in isolation and then records each capacity-reconciliation round.
	Trajectory []float64
	// Shards is the number of server-affinity shards the hierarchical
	// planner decomposed the scenario into (local singletons included);
	// zero when the plan came from the monolithic path.
	Shards int
	// DirtyShards is the number of shards a delta replan (PlanDelta)
	// re-planned; zero for plans produced by any full planning route.
	DirtyShards int
	// PlannerName identifies the strategy that produced the plan.
	PlannerName string
	// FrontierHits and FrontierMisses count how the plan's per-user surgery
	// problems were answered, across the whole planning run: from an already
	// filled cell of a Pareto-frontier table, or by running the optimizer
	// to fill one. Supplying Options.Frontiers moves lookups from misses to
	// hits and never changes the plan. A cell's fill is counted once: by the
	// lookup that ran the optimizer.
	FrontierHits, FrontierMisses int64
	// SurgeryOps is the deterministic work total the plan was charged in
	// scheduled surgery optimizations — the ledger Options.SurgeryBudget
	// bounds. It counts scheduled, not executed, work — the same with or
	// without tables — which is what lets the control plane's replan
	// deadline abort reproducibly under replay.
	SurgeryOps int64
}

// Strategy is anything that can plan a scenario: the joint planner and
// every baseline implement it.
type Strategy interface {
	Name() string
	Plan(sc *Scenario) (*Plan, error)
}

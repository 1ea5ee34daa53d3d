package sim

import (
	"fmt"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/stats"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// Discipline selects how a server's capacity (and its uplink) is divided
// among users.
type Discipline int

const (
	// DedicatedShares gives each user a private lane at its allocated
	// share of the capacity (the GPS idealization of weighted sharing).
	DedicatedShares Discipline = iota
	// SharedFCFS serializes all users' jobs through one full-speed queue
	// (what a system with no resource allocation does).
	SharedFCFS
	// ProcessorSharing runs each server as an egalitarian
	// processor-sharing fluid (all resident jobs progress at 1/n of
	// capacity — a GPU time-slicer). The uplink remains a frame-serialized
	// FCFS queue at full rate, as a WLAN is.
	ProcessorSharing
)

// ServerConfig describes one edge server and its uplink.
type ServerConfig struct {
	Profile *hardware.Profile
	Link    netmodel.Link
}

// UserConfig binds one user's plan, hardware, assignment and task stream.
type UserConfig struct {
	Plan   surgery.Plan
	Device *hardware.Profile
	// Server is the index of the assigned server, or -1 for none (the
	// plan must then be fully local).
	Server int
	// ComputeShare and BandwidthShare are the user's allocated fractions
	// (used under DedicatedShares).
	ComputeShare, BandwidthShare float64
	// Curves calibrates exit behaviour; zero value means DefaultCurves.
	Curves surgery.ExitCurves
	// TxFactor scales cross-partition bytes (activation compression);
	// 0 means 1 (none).
	TxFactor float64
	// Tasks is the user's arrival-ordered request stream (must be sorted
	// by Arrival).
	Tasks []workload.Task
}

// Config is a complete simulation scenario.
type Config struct {
	Servers    []ServerConfig
	Users      []UserConfig
	Discipline Discipline
	// Horizon stops the simulation at this virtual time; tasks still in
	// flight are dropped from the records. 0 means run to completion.
	Horizon float64
	// Faults injects server crashes, link outages and brown-outs into the
	// task lifecycle (nil = nothing fails). Run refuses it under
	// ProcessorSharing, whose fluid stations have no capacity-over-time
	// hook.
	Faults *faults.Schedule
	// Retry bounds how much time faults may cost a task (retries with
	// backoff, per-task timeout). Consulted whenever Faults is set or
	// Retry.TaskTimeout is positive. Run refuses a positive TaskTimeout
	// under ProcessorSharing, whose fluid stations cannot abandon a job.
	Retry RetryPolicy
	// KeepRecords retains the per-task Records slice. When false (the
	// default) only the streaming aggregates (PerUser and the Result
	// methods) are available, so heavy-traffic runs don't hold millions of
	// TaskRecords.
	KeepRecords bool
}

// TaskRecord is the per-task outcome.
type TaskRecord struct {
	User       int
	Arrival    float64
	Finish     float64
	Latency    float64
	Deadline   float64
	Met        bool // deadline met (true when no deadline)
	ExitCut    int  // backbone cut where the task exited
	Crossed    bool // task crossed the partition boundary
	Accuracy   float64
	DeviceWait float64 // queueing before device compute
	DeviceSec  float64 // device service time
	TxWait     float64
	TxSec      float64
	ServerWait float64
	ServerSec  float64
	// EnergyJ is the device-side energy spent on this task (active compute
	// plus radio airtime).
	EnergyJ float64
	// Failed marks a task aborted by faults (retries exhausted or task
	// timeout exceeded); Finish is then the abort instant and Met is
	// false.
	Failed bool
	// Cause labels why the task failed (CauseNone for successes).
	Cause FailCause
}

// UserStats aggregates one user's outcomes. Failed tasks count in the
// Failures and Deadline meters but are excluded from the Latency, Accuracy
// and Energy aggregates (their values are censored, not observed).
type UserStats struct {
	Latency  stats.Series
	Deadline stats.Meter
	ExitHist map[int]int
	Accuracy stats.Stream
	Crossed  stats.Meter
	Energy   stats.Stream
	Failures stats.Meter
}

// Result is the full simulation outcome. Pooled aggregates are reduced from
// PerUser in user-index order, so they do not depend on how the scenario
// decomposed into components.
type Result struct {
	// Records holds every recorded task, grouped by user index and in
	// completion order within each user. Nil unless Config.KeepRecords.
	Records []TaskRecord
	PerUser []*UserStats
	Horizon float64
	Events  int64
	// ServerUtil[i] is server i's compute utilization over the horizon.
	ServerUtil []float64
}

// Latencies returns the pooled latency series across all users (failed
// tasks excluded: their latency is censored at the abort instant).
func (r *Result) Latencies() *stats.Series {
	var s stats.Series
	n := 0
	for _, us := range r.PerUser {
		n += us.Latency.Count()
	}
	s.Grow(n)
	for _, us := range r.PerUser {
		s.Merge(&us.Latency)
	}
	return &s
}

// DeadlineRate returns the pooled deadline satisfaction rate; failed tasks
// with deadlines count as misses.
func (r *Result) DeadlineRate() float64 {
	var m stats.Meter
	for _, us := range r.PerUser {
		m.Merge(us.Deadline)
	}
	return m.Rate()
}

// FailureRate returns the fraction of recorded tasks that failed.
func (r *Result) FailureRate() float64 {
	var m stats.Meter
	for _, us := range r.PerUser {
		m.Merge(us.Failures)
	}
	if m.Total() == 0 {
		return 0
	}
	return m.Rate()
}

// MeanAccuracy returns the pooled expected-correctness mean over completed
// tasks (failed tasks are censored, matching the UserStats contract).
func (r *Result) MeanAccuracy() float64 {
	var s stats.Stream
	for _, us := range r.PerUser {
		s.Merge(us.Accuracy)
	}
	return s.Mean()
}

// MeanDeviceEnergy returns the pooled per-task device energy in joules over
// completed tasks (failed tasks are censored).
func (r *Result) MeanDeviceEnergy() float64 {
	var s stats.Stream
	for _, us := range r.PerUser {
		s.Merge(us.Energy)
	}
	return s.Mean()
}

// pickExit returns the first exit whose confidence power covers the task
// difficulty (the final exit always does).
func pickExit(path []surgery.Exit, difficulty float64) *surgery.Exit {
	for i := range path {
		if path[i].Tau >= difficulty {
			return &path[i]
		}
	}
	return &path[len(path)-1]
}

// Run executes the scenario and returns streaming aggregates (plus per-task
// records when Config.KeepRecords is set). Each user's plan is walked once
// (surgery's Plan.Path) into the per-exit demands its tasks draw from. The
// scenario is decomposed into independent components (see shard.go), each
// run to completion on its own engine, and the results merged in user-index
// order.
func Run(cfg Config) (*Result, error) {
	if cfg.Faults != nil && !cfg.Faults.Empty() && cfg.Discipline == ProcessorSharing {
		return nil, fmt.Errorf("sim: fault injection is not supported under ProcessorSharing")
	}
	if cfg.Retry.TaskTimeout > 0 && cfg.Discipline == ProcessorSharing {
		return nil, fmt.Errorf("sim: a task timeout is not supported under ProcessorSharing")
	}
	paths := make([][]surgery.Exit, len(cfg.Users))
	for ui := range cfg.Users {
		u := &cfg.Users[ui]
		if u.Server >= len(cfg.Servers) {
			return nil, fmt.Errorf("sim: user %d assigned to unknown server %d", ui, u.Server)
		}
		if err := u.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("sim: user %d: %w", ui, err)
		}
		var srv *hardware.Profile
		if u.Server >= 0 {
			srv = cfg.Servers[u.Server].Profile
		}
		if srv == nil && u.Plan.Partition < u.Plan.Model.NumUnits() {
			return nil, fmt.Errorf("sim: user %d: plan %v offloads but has no server", ui, u.Plan)
		}
		if u.Server >= 0 && cfg.Discipline == DedicatedShares {
			if u.ComputeShare <= 0 || u.BandwidthShare <= 0 {
				return nil, fmt.Errorf("sim: user %d has non-positive shares under DedicatedShares", ui)
			}
		}
		for ti := 1; ti < len(u.Tasks); ti++ {
			if u.Tasks[ti].Arrival < u.Tasks[ti-1].Arrival {
				return nil, fmt.Errorf("sim: user %d tasks not sorted by arrival", ui)
			}
		}
		paths[ui] = u.Plan.Path(u.Device, srv, u.Curves)
	}
	comps := partition(&cfg)
	shards := runComponents(&cfg, comps, paths)
	return mergeShards(&cfg, comps, shards), nil
}

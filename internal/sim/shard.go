package sim

import (
	"edgesurgeon/internal/hardware"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/surgery"
	"edgesurgeon/internal/workload"
)

// The sharded path exploits the scenario's independence structure:
// no station is ever shared across servers, so the station graph decomposes
// into closed components whose event streams never interact —
//
//   - under SharedFCFS and ProcessorSharing, each server plus its assigned
//     users (their device stations, the shared uplink, the shared compute
//     station) is one component;
//   - under DedicatedShares every user is its own component (the user's
//     device, uplink lane and compute lane are all private — the GPS
//     idealization has no cross-user coupling at all);
//   - a user with no server (fully local plan) is its own component under
//     every discipline.
//
// Running a component alone replays exactly the event subsequence it would
// have produced inside the global run: events touch only component-local
// state, relative (time, sequence) order within a component is preserved,
// and every floating-point quantity is computed from the same inputs in the
// same order. Components therefore run one at a time, each on an engine (and
// event heap) sized to it alone, and their results merge by global user
// index.

// component is one closed subsystem of the scenario.
type component struct {
	server int   // global server index owning shared stations, or -1
	users  []int // global user indices, ascending
}

// partition decomposes the scenario into independent components: every
// user alone, in user order, under DedicatedShares; otherwise one component
// per non-empty server in server order, then one per local-only user in user
// order.
func partition(cfg *Config) []component {
	var comps []component
	if cfg.Discipline == DedicatedShares {
		for ui, u := range cfg.Users {
			comps = append(comps, component{server: u.Server, users: []int{ui}})
		}
		return comps
	}
	byServer := make([][]int, len(cfg.Servers))
	var local []int
	for ui, u := range cfg.Users {
		if u.Server >= 0 {
			byServer[u.Server] = append(byServer[u.Server], ui)
		} else {
			local = append(local, ui)
		}
	}
	for s, users := range byServer {
		if len(users) > 0 {
			comps = append(comps, component{server: s, users: users})
		}
	}
	for _, ui := range local {
		comps = append(comps, component{server: -1, users: []int{ui}})
	}
	return comps
}

// Task lifecycle stages for the intrusive state machine.
const (
	stageDevice uint8 = iota
	stageTx
	stageServer
)

// taskState is one in-flight task's mutable state. Instances are pooled per
// shard (LIFO free list, chunk-allocated), so steady-state simulation
// allocates nothing per task.
type taskState struct {
	nextFree  *taskState
	lu        int32 // shard-local user index
	stage     uint8
	txCause   FailCause
	srvCause  FailCause
	task      *workload.Task
	choice    *surgery.Exit
	timeoutAt float64
	devWait   float64
	devFinish float64
	txWait    float64
	txSec     float64
	txFinish  float64
	// st, start and dur are the current stage's booking on a Station.
	st    *Station
	start float64
	dur   float64
}

// lane is a stage a task is submitted to: a FCFS Station or a
// processor-sharing PSStation.
type lane interface {
	submitTask(*taskState)
	BusyTime() float64
}

// shardUser is one user's runtime state inside a shard. Under
// DedicatedShares tx and compute are the user's own lanes at its shares;
// otherwise they are the server's shared stages and both shares are 1.
type shardUser struct {
	gu      int // global user index
	path    []surgery.Exit
	txBytes int64 // bytes a crossing task sends over the uplink
	device  *Station
	tx      *Station
	compute lane
	link    netmodel.Link
	dev     *hardware.Profile
	cShare  float64
	bShare  float64
	server  int // global server index, -1 for none
	tasks   []workload.Task
	next    int // index of the next task to admit
	recs    []TaskRecord
	stats   *UserStats
}

// shardRun simulates one component to completion on its own engine.
type shardRun struct {
	eng  Engine
	cfg  *Config
	keep bool

	users []shardUser
	// srv is the server's shared compute stage (at most one server per
	// component); nil under DedicatedShares and for a local user.
	srv lane

	free *taskState

	end    float64
	events int64
	busy   float64 // compute busy time attributed to the component's server
}

// newShardRun builds the runtime for one component. paths[gu] holds the
// exit walk of global user gu's plan (validated by Run).
func newShardRun(cfg *Config, comp component, paths [][]surgery.Exit) *shardRun {
	r := &shardRun{cfg: cfg, keep: cfg.KeepRecords}
	r.eng.run = r
	var srvTx *Station
	if comp.server >= 0 && cfg.Discipline != DedicatedShares {
		if cfg.Discipline == ProcessorSharing {
			r.srv = NewPSStation(&r.eng, "srv")
		} else {
			r.srv = NewStation(&r.eng, "srv")
		}
		srvTx = NewStation(&r.eng, "srv.uplink")
	}
	r.users = make([]shardUser, len(comp.users))
	nTasks := 0
	for li, gu := range comp.users {
		u := &cfg.Users[gu]
		su := &r.users[li]
		su.gu = gu
		su.path = paths[gu]
		su.dev = u.Device
		su.server = u.Server
		su.tasks = u.Tasks
		su.device = NewStation(&r.eng, "dev")
		if u.Server >= 0 {
			su.link = cfg.Servers[u.Server].Link
			factor := u.TxFactor
			if factor <= 0 {
				factor = 1
			}
			su.txBytes = int64(float64(u.Plan.Model.CutBytes(u.Plan.Partition)) * factor)
			if r.srv != nil {
				su.tx, su.compute = srvTx, r.srv
				su.bShare, su.cShare = 1, 1
			} else {
				su.tx, su.compute = NewStation(&r.eng, "tx"), NewStation(&r.eng, "srv-lane")
				su.bShare, su.cShare = u.BandwidthShare, u.ComputeShare
			}
		}
		su.stats = &UserStats{ExitHist: make(map[int]int)}
		n := len(u.Tasks)
		nTasks += n
		su.stats.Latency.Grow(n)
		if r.keep {
			su.recs = make([]TaskRecord, 0, n)
		}
	}
	// Heap pre-size: one pending arrival per user plus a few booked
	// completions each (every queued job holds its completion event) and
	// stale PS checks; a longer backlog grows the heap as it forms.
	grow := 4*len(r.users) + 64
	if grow > nTasks+len(r.users) {
		grow = nTasks + len(r.users)
	}
	r.eng.Grow(grow)
	return r
}

// run admits every user's first arrival and drives the component to its end.
func (r *shardRun) run() {
	for li := range r.users {
		if len(r.users[li].tasks) > 0 {
			r.eng.atArrival(r.users[li].tasks[0].Arrival, li)
		}
	}
	if r.cfg.Horizon > 0 {
		r.eng.RunUntil(r.cfg.Horizon)
	} else {
		r.eng.Run()
	}
	r.end = r.eng.Now()
	r.events = r.eng.Executed()
	if r.srv != nil {
		r.busy = r.srv.BusyTime()
	} else {
		for li := range r.users {
			if su := &r.users[li]; su.compute != nil {
				// A dedicated lane at share f delivering t seconds of lane
				// time consumes f*t of the server.
				r.busy += su.compute.BusyTime() * su.cShare
			}
		}
	}
}

// getTask pops a pooled task struct, allocating a fresh chunk when the free
// list is dry.
func (r *shardRun) getTask() *taskState {
	if r.free == nil {
		chunk := make([]taskState, 64)
		for i := 0; i < len(chunk)-1; i++ {
			chunk[i].nextFree = &chunk[i+1]
		}
		r.free = &chunk[0]
	}
	t := r.free
	r.free = t.nextFree
	*t = taskState{}
	return t
}

func (r *shardRun) putTask(t *taskState) {
	t.task = nil
	t.choice = nil
	t.nextFree = r.free
	r.free = t
}

// arrive admits local user lu's next task (fired by evArrival). The
// following arrival is chained first, so the event heap holds one pending
// arrival per user instead of the whole task stream.
func (r *shardRun) arrive(lu int) {
	su := &r.users[lu]
	task := &su.tasks[su.next]
	su.next++
	if su.next < len(su.tasks) {
		r.eng.atArrival(su.tasks[su.next].Arrival, lu)
	}
	t := r.getTask()
	t.lu = int32(lu)
	t.stage = stageDevice
	t.task = task
	t.choice = pickExit(su.path, task.Difficulty)
	t.timeoutAt = r.cfg.Retry.timeoutAt(task.Arrival)
	su.device.submitTask(t)
}

// stageDur computes the service duration of t's current stage on a Station
// starting at start. A nil fault schedule never strikes and an infinite
// timeout never fires, so the integrators serve fault-free runs too.
func (r *shardRun) stageDur(t *taskState, start float64) float64 {
	su := &r.users[t.lu]
	var d float64
	switch t.stage {
	case stageDevice:
		return t.choice.DeviceSec
	case stageTx:
		d, t.txCause = txStage(r.cfg.Faults, su.server, su.link, su.txBytes, start, su.bShare, t.timeoutAt)
	default: // stageServer; a PSStation takes the demand itself
		d, t.srvCause = computeStage(r.cfg.Faults, su.server, start, t.choice.ServerSec/su.cShare, t.timeoutAt)
	}
	return d
}

// stageDone advances t's state machine when its current stage completes.
func (r *shardRun) stageDone(t *taskState, start, finish float64) {
	su := &r.users[t.lu]
	switch t.stage {
	case stageDevice:
		t.devWait = start - t.task.Arrival
		t.devFinish = finish
		if !t.choice.Crossed {
			r.finishTask(su, t, finish, 0, 0, 0, 0)
			r.putTask(t)
			return
		}
		t.stage = stageTx
		su.tx.submitTask(t)
	case stageTx:
		if t.txCause != CauseNone {
			r.failTask(su, t, finish, t.txCause)
			r.putTask(t)
			return
		}
		t.txWait = start - t.devFinish
		t.txSec = finish - start
		t.txFinish = finish
		t.stage = stageServer
		su.compute.submitTask(t)
	default: // stageServer
		if t.srvCause != CauseNone {
			r.failTask(su, t, finish, t.srvCause)
			r.putTask(t)
			return
		}
		// A PSStation starts a job when it is submitted: its wait is 0 and
		// all its time is service.
		r.finishTask(su, t, finish, t.txWait, t.txSec, start-t.txFinish, finish-start)
		r.putTask(t)
	}
}

// finishTask records a completed task into the user's streaming aggregates
// (and its record slice when KeepRecords is set).
func (r *shardRun) finishTask(su *shardUser, t *taskState, finish, txWait, txSec, srvWait, srvSec float64) {
	task := t.task
	lat := finish - task.Arrival
	choice := t.choice
	met := task.Deadline <= 0 || lat <= task.Deadline
	energy := su.dev.ComputeEnergy(choice.DeviceSec) + su.dev.RadioEnergy(txSec)
	if r.keep {
		su.recs = append(su.recs, TaskRecord{
			User: su.gu, Arrival: task.Arrival, Finish: finish, Latency: lat,
			Deadline: task.Deadline, Met: met,
			ExitCut: choice.Cut, Crossed: choice.Crossed, Accuracy: choice.Accuracy,
			DeviceWait: t.devWait, DeviceSec: choice.DeviceSec,
			TxWait: txWait, TxSec: txSec,
			ServerWait: srvWait, ServerSec: srvSec,
			EnergyJ: energy,
		})
	}
	us := su.stats
	us.Latency.Add(lat)
	if task.Deadline > 0 {
		us.Deadline.Observe(met)
	}
	us.ExitHist[choice.Cut]++
	us.Accuracy.Add(choice.Accuracy)
	us.Crossed.Observe(choice.Crossed)
	us.Energy.Add(energy)
	us.Failures.Observe(false)
}

// failTask records a fault-aborted task: a deadline miss (when the task
// carries a deadline) with the abort instant as its finish, kept out of the
// latency/accuracy/energy aggregates whose values it never produced.
func (r *shardRun) failTask(su *shardUser, t *taskState, abort float64, cause FailCause) {
	task := t.task
	choice := t.choice
	if r.keep {
		su.recs = append(su.recs, TaskRecord{
			User: su.gu, Arrival: task.Arrival, Finish: abort, Latency: abort - task.Arrival,
			Deadline: task.Deadline, Met: false,
			ExitCut: choice.Cut, Crossed: choice.Crossed,
			Failed: true, Cause: cause,
		})
	}
	us := su.stats
	if task.Deadline > 0 {
		us.Deadline.Observe(false)
	}
	us.Crossed.Observe(choice.Crossed)
	us.Failures.Observe(true)
}

// runComponents executes every component in order, on the caller's
// goroutine, and returns the per-component runs in component order.
func runComponents(cfg *Config, comps []component, paths [][]surgery.Exit) []*shardRun {
	shards := make([]*shardRun, len(comps))
	for i := range comps {
		shards[i] = newShardRun(cfg, comps[i], paths)
		shards[i].run()
	}
	return shards
}

// mergeShards reduces per-component runs into one Result. Every reduction
// is either order-insensitive (integer counts) or performed in global user
// index order (records, series, streams, lane busy-time sums).
func mergeShards(cfg *Config, comps []component, shards []*shardRun) *Result {
	res := &Result{PerUser: make([]*UserStats, len(cfg.Users))}

	horizon := cfg.Horizon
	if horizon <= 0 {
		for _, sh := range shards {
			if sh.end > horizon {
				horizon = sh.end
			}
		}
	}
	res.Horizon = horizon

	recsByUser := make([][]TaskRecord, len(cfg.Users))
	nRecords := 0
	for _, sh := range shards {
		res.Events += sh.events
		for li := range sh.users {
			su := &sh.users[li]
			res.PerUser[su.gu] = su.stats
			recsByUser[su.gu] = su.recs
			nRecords += len(su.recs)
		}
	}
	// Users with no tasks in any component still get stats (a user can only
	// be missing if it appeared in no component, which partition() forbids,
	// but keep the invariant explicit).
	for ui := range res.PerUser {
		if res.PerUser[ui] == nil {
			res.PerUser[ui] = &UserStats{ExitHist: make(map[int]int)}
		}
	}
	if cfg.KeepRecords {
		res.Records = make([]TaskRecord, 0, nRecords)
		for ui := range recsByUser {
			res.Records = append(res.Records, recsByUser[ui]...)
		}
	}

	res.ServerUtil = make([]float64, len(cfg.Servers))
	for ci, comp := range comps {
		if comp.server >= 0 {
			res.ServerUtil[comp.server] += shards[ci].busy
		}
	}
	if horizon > 0 {
		for si := range res.ServerUtil {
			res.ServerUtil[si] /= horizon
		}
	} else {
		for si := range res.ServerUtil {
			res.ServerUtil[si] = 0
		}
	}
	return res
}

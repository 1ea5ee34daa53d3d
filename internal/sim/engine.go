// Package sim is a deterministic discrete-event simulator for edge
// inference pipelines. It executes the full task lifecycle — device
// compute, uplink transfer over (possibly fading) links, server compute —
// against FCFS or share-partitioned stations in virtual time, producing
// per-task latency records. Virtual time is decoupled from wall-clock time,
// so Go's garbage collector cannot perturb measured latencies (the
// substitute for the paper's line-rate testbed measurements).
//
// Scenarios decompose into independent components (each server plus its
// assigned users; each local-only user), and Run executes them one after
// another, each on its own small engine, with a deterministic merge. See
// shard.go for the decomposition argument.
package sim

import (
	"fmt"
	"math"
)

// eventKind discriminates the typed event records in the engine's heap.
// The task lifecycle schedules only typed events — no closure is allocated
// per task or per service completion.
type eventKind uint8

const (
	// evFunc runs a caller-supplied closure (the public At/After API).
	evFunc eventKind = iota
	// evArrival admits the next task of shard-local user idx.
	evArrival
	// evStationDone completes task's booking on its station.
	evStationDone
	// evPSCheck re-examines ps for completions if generation idx is current.
	evPSCheck
)

// event is one scheduled occurrence. Only the fields its kind names are
// meaningful (fn; idx; task; ps and idx); keeping them inline (rather than
// behind an interface) avoids boxing every event through `any` on push and
// pop.
type event struct {
	at   float64
	seq  int64
	kind eventKind
	idx  int64 // evArrival: local user index; evPSCheck: generation
	ps   *PSStation
	task *taskState
	fn   func()
}

// Engine is the virtual-time event loop. The zero value is ready to use.
// The priority queue is a hand-rolled 4-ary min-heap of typed event
// records: shallower than a binary heap (fewer swaps per sift) and free of
// the container/heap interface allocations.
type Engine struct {
	now  float64
	seq  int64
	pq   []event
	nRun int64
	// run receives typed task-lifecycle events; nil when the engine is
	// used standalone (tests, examples) with closure events only.
	run *shardRun
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Grow pre-sizes the event heap so the next n pushes don't reallocate.
func (e *Engine) Grow(n int) {
	if cap(e.pq)-len(e.pq) >= n {
		return
	}
	pq := make([]event, len(e.pq), len(e.pq)+n)
	copy(pq, e.pq)
	e.pq = pq
}

// At schedules fn at absolute virtual time t (>= Now). Events scheduled for
// the same instant run in scheduling order.
func (e *Engine) At(t float64, fn func()) {
	e.schedule(t, event{kind: evFunc, fn: fn})
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// atArrival schedules the admission of shard-local user lu's next task.
func (e *Engine) atArrival(t float64, lu int) {
	e.schedule(t, event{kind: evArrival, idx: int64(lu)})
}

// atStationDone schedules the completion of task's booking.
func (e *Engine) atStationDone(t float64, task *taskState) {
	e.schedule(t, event{kind: evStationDone, task: task})
}

// atPSCheck schedules a completion check on ps guarded by generation gen.
func (e *Engine) atPSCheck(t float64, ps *PSStation, gen int64) {
	e.schedule(t, event{kind: evPSCheck, idx: gen, ps: ps})
}

func (e *Engine) schedule(t float64, ev event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %g < %g", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: bad event time %g", t))
	}
	e.seq++
	ev.at = t
	ev.seq = e.seq
	e.push(ev)
}

// less orders events by (time, scheduling sequence).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev event) {
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(&e.pq[i], &e.pq[p]) {
			break
		}
		e.pq[i], e.pq[p] = e.pq[p], e.pq[i]
		i = p
	}
}

func (e *Engine) pop() event {
	top := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq[n] = event{} // release fn/station/task references
	e.pq = e.pq[:n]
	if n > 0 {
		e.pq[0] = last
		e.siftDown()
	}
	return top
}

func (e *Engine) siftDown() {
	n := len(e.pq)
	i := 0
	for {
		best := i
		c := i*4 + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if less(&e.pq[c], &e.pq[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		e.pq[i], e.pq[best] = e.pq[best], e.pq[i]
		i = best
	}
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with time <= t and returns the current time.
func (e *Engine) RunUntil(t float64) float64 {
	for len(e.pq) > 0 && e.pq[0].at <= t {
		ev := e.pop()
		e.now = ev.at
		e.nRun++
		switch ev.kind {
		case evFunc:
			ev.fn()
		case evArrival:
			e.run.arrive(int(ev.idx))
		case evStationDone:
			ev.task.st.complete(ev.task)
		case evPSCheck:
			if ev.idx == ev.ps.gen {
				ev.ps.complete()
			}
		}
	}
	if t > e.now && !math.IsInf(t, 1) {
		e.now = t
	}
	return e.now
}

// Executed returns the number of events processed (for tests and
// instrumentation).
func (e *Engine) Executed() int64 { return e.nRun }

// Station is a FCFS single-server stage whose per-job service time may
// depend on the job's start time (which is how time-varying link rates are
// integrated exactly). It keeps no queue: a job is booked when it is
// submitted, by Lindley's recursion start = max(now, free), and one
// completion event carries it. A Station with share-partitioned capacity is
// modeled as one dedicated Station per share-holder.
type Station struct {
	Name     string
	eng      *Engine
	free     float64 // when the last booked job finishes
	busyTime float64
}

// NewStation builds a station attached to the engine.
func NewStation(eng *Engine, name string) *Station {
	return &Station{Name: name, eng: eng}
}

// submitTask books t's current stage, sized by the shard runner's stageDur
// from its start.
func (s *Station) submitTask(t *taskState) {
	start := max(s.eng.now, s.free)
	d := s.eng.run.stageDur(t, start)
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("sim: station %s: bad duration %g", s.Name, d))
	}
	t.st, t.start, t.dur = s, start, d
	s.free = start + d
	s.eng.atStationDone(s.free, t)
}

// complete finishes t's booking (fired by evStationDone). Busy time counts
// here, not at booking, so a job the horizon cuts off never counts.
func (s *Station) complete(t *taskState) {
	s.busyTime += t.dur
	s.eng.run.stageDone(t, t.start, s.eng.now)
}

// BusyTime returns the cumulative service time delivered.
func (s *Station) BusyTime() float64 { return s.busyTime }

package sim

import (
	"fmt"
	"math"
)

// PSStation is an egalitarian processor-sharing server: all resident jobs
// progress simultaneously, each at 1/n of the station's capacity. This is
// the fluid model of a GPU time-slicer or a CFS-scheduled core, and the
// third service discipline the pipeline supports (see ProcessorSharing).
//
// Service demands are expressed in seconds at full capacity. Completion
// events are rescheduled on every arrival/departure via a generation
// counter, so stale events are ignored rather than cancelled. Jobs are held
// in submission order, so simultaneous completions fire deterministically
// (oldest first) — a requirement for a deterministic run.
type PSStation struct {
	Name string
	eng  *Engine

	jobs       []psJob
	fin        []psJob // scratch for completions, reused across events
	lastUpdate float64
	gen        int64
	busyTime   float64
}

type psJob struct {
	remaining float64 // seconds of service at full capacity
	submitted float64
	task      *taskState
	done      func(start, finish float64)
}

// NewPSStation builds a processor-sharing station on the engine.
func NewPSStation(eng *Engine, name string) *PSStation {
	return &PSStation{Name: name, eng: eng}
}

// submitTask adds t's server demand; completion is routed to the shard
// runner's stageDone without allocating a closure.
func (s *PSStation) submitTask(t *taskState) {
	s.admit(psJob{remaining: t.choice.ServerSec, task: t})
}

func (s *PSStation) admit(j psJob) {
	if j.remaining < 0 || math.IsNaN(j.remaining) {
		panic(fmt.Sprintf("sim: ps station %s: bad service %g", s.Name, j.remaining))
	}
	s.advance()
	j.submitted = s.eng.Now()
	s.jobs = append(s.jobs, j)
	s.reschedule()
}

// advance progresses all resident jobs to the current instant.
func (s *PSStation) advance() {
	now := s.eng.Now()
	if n := len(s.jobs); n > 0 {
		progress := (now - s.lastUpdate) / float64(n)
		for i := range s.jobs {
			s.jobs[i].remaining -= progress
		}
		s.busyTime += now - s.lastUpdate
	}
	s.lastUpdate = now
}

// reschedule plans the next completion.
func (s *PSStation) reschedule() {
	s.gen++
	if len(s.jobs) == 0 {
		return
	}
	min := math.Inf(1)
	for i := range s.jobs {
		if s.jobs[i].remaining < min {
			min = s.jobs[i].remaining
		}
	}
	if min < 0 {
		min = 0
	}
	eta := min * float64(len(s.jobs))
	s.eng.atPSCheck(s.eng.Now()+eta, s, s.gen)
}

// complete finishes every job whose remaining service reached zero, in
// submission order (fired by a current-generation evPSCheck).
func (s *PSStation) complete() {
	s.advance()
	now := s.eng.Now()
	const eps = 1e-12
	s.fin = s.fin[:0]
	keep := s.jobs[:0]
	for i := range s.jobs {
		if s.jobs[i].remaining <= eps {
			s.fin = append(s.fin, s.jobs[i])
		} else {
			keep = append(keep, s.jobs[i])
		}
	}
	// Zero the vacated tail so finished-job references are not retained.
	for i := len(keep); i < len(s.jobs); i++ {
		s.jobs[i] = psJob{}
	}
	s.jobs = keep
	s.reschedule()
	for i := range s.fin {
		j := &s.fin[i]
		if j.task != nil {
			s.eng.run.stageDone(j.task, j.submitted, now)
		} else if j.done != nil {
			j.done(j.submitted, now)
		}
		*j = psJob{}
	}
}

// BusyTime returns the cumulative time the station was non-empty.
func (s *PSStation) BusyTime() float64 {
	// Account for the open interval since the last update.
	if len(s.jobs) > 0 {
		return s.busyTime + (s.eng.Now() - s.lastUpdate)
	}
	return s.busyTime
}

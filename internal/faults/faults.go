// Package faults models the unreliable parts of a heterogeneous edge —
// servers that crash and recover, wireless uplinks that drop out, and
// capacity brown-outs — as deterministic schedules of half-open fault
// windows over virtual time. A Schedule composes with any scenario: the
// simulator consults it to abort and retry in-flight work (package sim),
// and the online dispatcher consults it (through health probes) to
// evacuate, degrade and recover (package joint). Schedules are written out
// window by window, so every failure experiment is bit-reproducible.
package faults

import (
	"fmt"
	"math"
	"sort"
)

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// ServerCrash takes a server's compute fully down: in-flight work is
	// lost and must be retried after recovery.
	ServerCrash Kind = iota
	// LinkOutage takes a server's uplink down: in-flight transfers abort
	// and retransmit from scratch after restoration.
	LinkOutage
	// Brownout reduces a server's compute capacity to Factor of nominal
	// (thermal throttling, co-tenant interference): work slows but is not
	// lost.
	Brownout
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case ServerCrash:
		return "server-crash"
	case LinkOutage:
		return "link-outage"
	case Brownout:
		return "brownout"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Window is one fault: kind k affects server Server over [Start, End).
type Window struct {
	Kind   Kind
	Server int
	// Start (inclusive) and End (exclusive) bound the fault in virtual
	// seconds.
	Start, End float64
	// Factor is the remaining capacity fraction during a Brownout, in
	// (0, 1); ignored for other kinds.
	Factor float64
}

// Validate checks one window's invariants.
func (w Window) Validate() error {
	if w.Server < 0 {
		return fmt.Errorf("faults: window on negative server %d", w.Server)
	}
	if math.IsNaN(w.Start) || math.IsNaN(w.End) || math.IsInf(w.Start, 0) {
		return fmt.Errorf("faults: window [%g, %g) has non-finite bounds", w.Start, w.End)
	}
	if !(w.End > w.Start) || w.Start < 0 {
		return fmt.Errorf("faults: window [%g, %g) is empty or negative", w.Start, w.End)
	}
	if w.Kind == Brownout && (w.Factor <= 0 || w.Factor >= 1 || math.IsNaN(w.Factor)) {
		return fmt.Errorf("faults: brownout factor %g out of (0, 1)", w.Factor)
	}
	if w.Kind != ServerCrash && w.Kind != LinkOutage && w.Kind != Brownout {
		return fmt.Errorf("faults: unknown kind %d", int(w.Kind))
	}
	return nil
}

// Schedule is an immutable, time-sorted set of fault windows. The nil
// schedule is valid and means "nothing ever fails".
type Schedule struct {
	windows []Window
}

// New validates and sorts the windows into a schedule.
func New(windows ...Window) (*Schedule, error) {
	for i, w := range windows {
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("faults: window %d: %w", i, err)
		}
	}
	s := &Schedule{windows: append([]Window(nil), windows...)}
	sort.SliceStable(s.windows, func(i, j int) bool {
		a, b := s.windows[i], s.windows[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Server != b.Server {
			return a.Server < b.Server
		}
		return a.Kind < b.Kind
	})
	return s, nil
}

// MustNew is New for hand-authored schedules in experiments and tests.
func MustNew(windows ...Window) *Schedule {
	s, err := New(windows...)
	if err != nil {
		panic(err)
	}
	return s
}

// Merge composes schedules into one (nil inputs are skipped).
func Merge(ss ...*Schedule) *Schedule {
	var all []Window
	for _, s := range ss {
		if s != nil {
			all = append(all, s.windows...)
		}
	}
	m, err := New(all...)
	if err != nil {
		// Inputs were already validated individually.
		panic(err)
	}
	return m
}

// Windows returns a copy of the schedule's windows in time order.
func (s *Schedule) Windows() []Window {
	if s == nil {
		return nil
	}
	return append([]Window(nil), s.windows...)
}

// Empty reports whether the schedule holds no faults.
func (s *Schedule) Empty() bool { return s == nil || len(s.windows) == 0 }

// active reports whether window w covers time t (half-open).
func (w Window) active(t float64) bool { return w.Start <= t && t < w.End }

// ServerUp reports whether server's compute is up (not crashed) at t.
func (s *Schedule) ServerUp(server int, t float64) bool {
	if s == nil {
		return true
	}
	for _, w := range s.windows {
		if w.Kind == ServerCrash && w.Server == server && w.active(t) {
			return false
		}
	}
	return true
}

// LinkUp reports whether server's uplink is up at t.
func (s *Schedule) LinkUp(server int, t float64) bool {
	if s == nil {
		return true
	}
	for _, w := range s.windows {
		if w.Kind == LinkOutage && w.Server == server && w.active(t) {
			return false
		}
	}
	return true
}

// CapacityFactor returns the fraction of nominal compute capacity server
// delivers at t: 0 while crashed, the minimum brown-out factor while
// browned out, 1 otherwise.
func (s *Schedule) CapacityFactor(server int, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, w := range s.windows {
		if w.Server != server || !w.active(t) {
			continue
		}
		switch w.Kind {
		case ServerCrash:
			return 0
		case Brownout:
			if w.Factor < f {
				f = w.Factor
			}
		}
	}
	return f
}

// nextBoundary returns the earliest window Start or End strictly after t
// among windows of the given kinds on the server, or +Inf.
func (s *Schedule) nextBoundary(server int, t float64, match func(Kind) bool) float64 {
	if s == nil {
		return math.Inf(1)
	}
	next := math.Inf(1)
	for _, w := range s.windows {
		if w.Server != server || !match(w.Kind) {
			continue
		}
		if w.Start > t && w.Start < next {
			next = w.Start
		}
		if w.End > t && w.End < next {
			next = w.End
		}
	}
	return next
}

// NextComputeChange returns the first time strictly after t at which
// server's compute capacity factor may change (crash/recover or brown-out
// edge), or +Inf.
func (s *Schedule) NextComputeChange(server int, t float64) float64 {
	return s.nextBoundary(server, t, func(k Kind) bool { return k == ServerCrash || k == Brownout })
}

// NextLinkChange returns the first time strictly after t at which server's
// link state may change, or +Inf.
func (s *Schedule) NextLinkChange(server int, t float64) float64 {
	return s.nextBoundary(server, t, func(k Kind) bool { return k == LinkOutage })
}

// ServerRecovery returns the first time >= t at which server's compute is
// up, or +Inf if it never recovers within the schedule (it always does:
// windows are finite, so the answer is finite).
func (s *Schedule) ServerRecovery(server int, t float64) float64 {
	for !s.ServerUp(server, t) {
		t = s.NextComputeChange(server, t)
	}
	return t
}

// LinkRestore returns the first time >= t at which server's link is up.
func (s *Schedule) LinkRestore(server int, t float64) float64 {
	for !s.LinkUp(server, t) {
		t = s.NextLinkChange(server, t)
	}
	return t
}

// Reachable reports whether server is usable for offloading at t: compute
// up and uplink up. This is what a health probe at time t would report.
func (s *Schedule) Reachable(server int, t float64) bool {
	return s.ServerUp(server, t) && s.LinkUp(server, t)
}

// Health returns the per-server reachability vector at time t, the input
// the dispatcher's ObserveHealth expects.
func (s *Schedule) Health(servers int, t float64) []bool {
	up := make([]bool, servers)
	for i := range up {
		up[i] = s.Reachable(i, t)
	}
	return up
}

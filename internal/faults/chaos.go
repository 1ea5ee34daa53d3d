package faults

import (
	"fmt"
	"math"
	"sort"
)

// Chaos extends the fault taxonomy from the modeled system (servers,
// links) to the control plane itself: the serving process crashes and must
// recover from its store, the planner runs slow enough to blow replan
// deadlines, and telemetry sources emit corrupt samples. Like Schedule,
// a ChaosSchedule is an immutable, validated, deterministic artifact —
// indexed by sample ordinal rather than virtual time, because control-plane
// chaos strikes the ingestion stream, not the simulated clock — so every
// chaos-replay experiment is bit-reproducible.

// ChaosKind enumerates the control-plane fault taxonomy.
type ChaosKind int

const (
	// CrashAfterSample kills the control plane after it has fully ingested
	// the sample at the event's ordinal; the driver recovers a fresh
	// runtime from the store and continues.
	CrashAfterSample ChaosKind = iota
	// SlowPlanner throttles the planner's virtual speed to Factor over the
	// half-open sample-ordinal window [Sample, Until), shrinking the
	// replan-deadline budget accordingly.
	SlowPlanner
	// CorruptSample mangles the sample at the event's ordinal (per its
	// Corrupt kind) before ingestion, exercising validation rejections and
	// quarantine strikes.
	CorruptSample
)

// String names the chaos kind.
func (k ChaosKind) String() string {
	switch k {
	case CrashAfterSample:
		return "crash-after-sample"
	case SlowPlanner:
		return "slow-planner"
	case CorruptSample:
		return "corrupt-sample"
	default:
		return fmt.Sprintf("chaos-kind(%d)", int(k))
	}
}

// CorruptKind enumerates how a CorruptSample event mangles its sample.
type CorruptKind int

const (
	// CorruptNaN replaces the first uplink rate with NaN.
	CorruptNaN CorruptKind = iota
	// CorruptNegative replaces the first uplink rate with a negative value.
	CorruptNegative
	// CorruptTimeRegression rewinds the sample's timestamp before the
	// virtual clock.
	CorruptTimeRegression
	// CorruptWidth truncates the uplink vector to the wrong server count.
	CorruptWidth
)

// String names the corruption.
func (k CorruptKind) String() string {
	switch k {
	case CorruptNaN:
		return "nan"
	case CorruptNegative:
		return "negative"
	case CorruptTimeRegression:
		return "time-regression"
	case CorruptWidth:
		return "width"
	default:
		return fmt.Sprintf("corrupt-kind(%d)", int(k))
	}
}

// ChaosEvent is one control-plane fault, anchored to a sample ordinal in
// the ingestion stream.
type ChaosEvent struct {
	Kind ChaosKind
	// Sample is the 0-based ordinal the event strikes at (for SlowPlanner,
	// the window start).
	Sample int
	// Until is the exclusive window end for SlowPlanner; ignored otherwise.
	Until int
	// Factor is the planner speed in (0, 1] during a SlowPlanner window;
	// ignored otherwise.
	Factor float64
	// Corrupt picks the mangling for CorruptSample; ignored otherwise.
	Corrupt CorruptKind
}

// Validate checks one event's invariants.
func (e ChaosEvent) Validate() error {
	if e.Sample < 0 {
		return fmt.Errorf("faults: chaos event at negative sample %d", e.Sample)
	}
	switch e.Kind {
	case CrashAfterSample:
		return nil
	case SlowPlanner:
		if e.Until <= e.Sample {
			return fmt.Errorf("faults: slow-planner window [%d, %d) is empty", e.Sample, e.Until)
		}
		if math.IsNaN(e.Factor) || e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("faults: slow-planner factor %g out of (0, 1]", e.Factor)
		}
		return nil
	case CorruptSample:
		switch e.Corrupt {
		case CorruptNaN, CorruptNegative, CorruptTimeRegression, CorruptWidth:
			return nil
		}
		return fmt.Errorf("faults: unknown corruption %d", int(e.Corrupt))
	default:
		return fmt.Errorf("faults: unknown chaos kind %d", int(e.Kind))
	}
}

// ChaosSchedule is an immutable, ordinal-sorted set of chaos events. The
// nil schedule is valid and means "no chaos".
type ChaosSchedule struct {
	events []ChaosEvent
}

// NewChaos validates and sorts the events into a schedule.
func NewChaos(events ...ChaosEvent) (*ChaosSchedule, error) {
	for i, e := range events {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("faults: chaos event %d: %w", i, err)
		}
	}
	s := &ChaosSchedule{events: append([]ChaosEvent(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool {
		a, b := s.events[i], s.events[j]
		if a.Sample != b.Sample {
			return a.Sample < b.Sample
		}
		return a.Kind < b.Kind
	})
	return s, nil
}

// Events returns a copy of the schedule's events in ordinal order.
func (s *ChaosSchedule) Events() []ChaosEvent {
	if s == nil {
		return nil
	}
	return append([]ChaosEvent(nil), s.events...)
}

// Empty reports whether the schedule holds no chaos.
func (s *ChaosSchedule) Empty() bool { return s == nil || len(s.events) == 0 }

// CrashAfter reports whether the control plane is killed after ingesting
// sample i.
func (s *ChaosSchedule) CrashAfter(i int) bool {
	if s == nil {
		return false
	}
	for _, e := range s.events {
		if e.Kind == CrashAfterSample && e.Sample == i {
			return true
		}
	}
	return false
}

// PlannerFactor returns the planner speed factor in force while ingesting
// sample i: the minimum Factor among covering SlowPlanner windows, 1 when
// none covers.
func (s *ChaosSchedule) PlannerFactor(i int) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for _, e := range s.events {
		if e.Kind == SlowPlanner && e.Sample <= i && i < e.Until && e.Factor < f {
			f = e.Factor
		}
	}
	return f
}

// Corruption returns the mangling applied to sample i, if any.
func (s *ChaosSchedule) Corruption(i int) (CorruptKind, bool) {
	if s == nil {
		return 0, false
	}
	for _, e := range s.events {
		if e.Kind == CorruptSample && e.Sample == i {
			return e.Corrupt, true
		}
	}
	return 0, false
}

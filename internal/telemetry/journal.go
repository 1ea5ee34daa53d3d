package telemetry

import (
	"fmt"
	"strings"
	"sync"
)

// EventKind labels one class of control-plane decision. The control plane
// (internal/serve) defines its vocabulary; the journal itself is agnostic.
type EventKind string

// Event is one timestamped control-plane decision. Time is virtual
// seconds — the journal never reads a wall clock, so replaying a recorded
// trace reproduces the journal bit for bit. The JSON tags are the wire
// form events take inside control-plane snapshots.
type Event struct {
	// Time is the virtual timestamp of the decision.
	Time float64 `json:"t"`
	// Kind classifies the decision (e.g. "full-replan").
	Kind EventKind `json:"kind"`
	// Reason is a short human-readable cause ("uplink drift 0.34 >= 0.2").
	Reason string `json:"reason,omitempty"`
	// Value carries the decision's headline number (typically the plan
	// objective after the decision).
	Value float64 `json:"value,omitempty"`
}

// String renders the event on one deterministic line.
func (e Event) String() string {
	return fmt.Sprintf("t=%s %s value=%s reason=%q",
		formatFloat(e.Time), e.Kind, formatFloat(e.Value), e.Reason)
}

// Journal is an append-only, time-ordered record of control-plane events,
// safe for concurrent use. Two replays of the same trace produce
// byte-identical journals (String), which is how the determinism tests pin
// the control plane's behaviour.
type Journal struct {
	mu     sync.Mutex
	events []Event
}

// Record appends one event.
func (j *Journal) Record(e Event) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.mu.Unlock()
}

// Reset replaces the journal's contents wholesale — the crash-recovery
// path restoring a snapshot's event history before replaying the WAL tail.
func (j *Journal) Reset(events []Event) {
	j.mu.Lock()
	j.events = append(j.events[:0:0], events...)
	j.mu.Unlock()
}

// Events returns a copy of the journal in record order.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// CountKind returns how many recorded events have the given kind.
func (j *Journal) CountKind(k EventKind) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// String renders the journal one event per line, deterministically.
func (j *Journal) String() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	var b strings.Builder
	for _, e := range j.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

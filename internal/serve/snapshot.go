package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"edgesurgeon/internal/telemetry"
)

// SnapshotMagic and SnapshotVersion make snapshots self-describing: a
// decoder refuses anything it did not write, instead of misfolding foreign
// or future state into a running control plane.
const (
	SnapshotMagic   = "edgesurgeon-serve-snapshot"
	SnapshotVersion = 2
)

// SourceState is one telemetry source's quarantine record inside a
// snapshot: accumulated validation strikes, and the virtual time until
// which the source is muted (0 = not quarantined).
type SourceState struct {
	Strikes int     `json:"strikes,omitempty"`
	Until   float64 `json:"until,omitempty"`
}

// Snapshot is the Runtime's complete recoverable state at one ingestion
// boundary. Everything a replay needs that is not derivable from the
// scenario and config is here: the folded environment view (rates, health),
// the hysteresis state (last-full time, budget window, abort time), the
// quarantine table, the decision journal, and the full metric registry.
// The active plan itself is deliberately NOT stored — recovery re-derives
// it by replanning the frozen scenario at PlanRates, which is cheaper to
// keep honest than a serialized plan (the planner is deterministic, so the
// result is bit-identical) and immune to plan-codec drift.
type Snapshot struct {
	Magic   string `json:"magic"`
	Version int    `json:"v"`
	// Seq is the WAL sequence number of the last sample folded into this
	// snapshot; recovery replays WAL entries with Seq greater than this.
	Seq uint64 `json:"seq"`
	// Samples is how many samples the runtime had ingested, whatever their
	// outcome: the trace ordinal a resumed replay continues at. Seq also
	// counts throttle entries, so it cannot stand in.
	Samples uint64 `json:"samples"`

	Clock     float64                 `json:"clock"`
	Rates     []float64               `json:"rates"`
	PlanRates []float64               `json:"plan_rates"`
	Down      []bool                  `json:"down,omitempty"`
	LastFull  float64                 `json:"last_full"`
	LastAbort float64                 `json:"last_abort,omitempty"`
	FullTimes []float64               `json:"full_times,omitempty"`
	Throttle  float64                 `json:"throttle,omitempty"`
	Sources   map[string]SourceState  `json:"sources,omitempty"`
	Journal   []telemetry.Event       `json:"journal,omitempty"`
	Metrics   telemetry.RegistryState `json:"metrics"`
}

// EncodeSnapshot renders the snapshot as canonical JSON.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	s.Magic, s.Version = SnapshotMagic, SnapshotVersion
	data, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding snapshot: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeSnapshot parses and structurally validates a snapshot. Every
// rejection names what is wrong, so a corrupt or foreign snapshot is
// diagnosable from the error alone — and never half-applied.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("serve: decoding snapshot: %w", err)
	}
	if s.Magic != SnapshotMagic {
		return nil, fmt.Errorf("serve: snapshot magic %q is not %q", s.Magic, SnapshotMagic)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d is not %d", s.Version, SnapshotVersion)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the invariants the Runtime relies on when restoring.
func (s *Snapshot) validate() error {
	finite := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("serve: snapshot %s %g is not finite", name, v)
		}
		return nil
	}
	if err := finite("clock", s.Clock); err != nil {
		return err
	}
	if s.Clock < 0 {
		return fmt.Errorf("serve: snapshot clock %g is negative", s.Clock)
	}
	if err := finite("last_full", s.LastFull); err != nil {
		return err
	}
	if err := finite("last_abort", s.LastAbort); err != nil {
		return err
	}
	if len(s.Rates) != len(s.PlanRates) {
		return fmt.Errorf("serve: snapshot has %d rates but %d plan rates", len(s.Rates), len(s.PlanRates))
	}
	if s.Down != nil && len(s.Down) != len(s.Rates) {
		return fmt.Errorf("serve: snapshot has %d down flags for %d servers", len(s.Down), len(s.Rates))
	}
	for i, r := range s.Rates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("serve: snapshot rate %d = %g is not a positive finite number", i, r)
		}
	}
	for i, r := range s.PlanRates {
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			return fmt.Errorf("serve: snapshot plan rate %d = %g is not a positive finite number", i, r)
		}
	}
	for _, ft := range s.FullTimes {
		if err := finite("full_time", ft); err != nil {
			return err
		}
	}
	if s.Throttle != 0 && (math.IsNaN(s.Throttle) || s.Throttle <= 0 || s.Throttle > 1) {
		return fmt.Errorf("serve: snapshot throttle %g is outside (0, 1]", s.Throttle)
	}
	for src, st := range s.Sources {
		if st.Strikes < 0 {
			return fmt.Errorf("serve: snapshot source %q has %d strikes", src, st.Strikes)
		}
		if err := finite("source until", st.Until); err != nil {
			return err
		}
	}
	for i, e := range s.Journal {
		if err := finite(fmt.Sprintf("journal event %d time", i), e.Time); err != nil {
			return err
		}
		if e.Kind == "" {
			return fmt.Errorf("serve: snapshot journal event %d has no kind", i)
		}
	}
	return nil
}

package serve

import (
	"errors"
	"fmt"
	"math"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/joint"
	"edgesurgeon/internal/telemetry"
)

// This file is the replay driver: RunChaos drives a recorded telemetry
// trace through a Runtime while a seeded faults.ChaosSchedule kills the
// process, throttles the planner and corrupts samples at fixed ordinals.
// Because every chaos event is keyed to a sample ordinal and every
// recovery is exact, a chaos replay is as deterministic as a clean one —
// which is what lets the E25 experiment and `make chaos-smoke` assert
// bit-identical output under fire.

// ChaosResult tallies what a chaos replay survived.
type ChaosResult struct {
	// Runtime is the final (possibly recovered) control plane, for
	// inspecting plan, journal and metrics.
	Runtime *Runtime
	// Resumed is the ordinal of the first sample this replay ingested: 0
	// for a new runtime, the store's sample count for a resumed one.
	Resumed int
	// Crashes is how many kill/recover cycles ran.
	Crashes int
	// Corrupted is how many samples were mangled before ingestion.
	Corrupted int
	// Rejections is how many ingests returned a validation or quarantine
	// error (reproducible history, not harness failures).
	Rejections int
	// Throttles is how many planner-speed changes were applied.
	Throttles int
}

// RunChaos replays samples under the chaos schedule through the runtime
// Recover opens: a store holding a run resumes it at the first sample it
// has not seen, never overwrites it; an empty store, or none, starts a
// New runtime. cfg.Store must be set when the schedule contains
// CrashAfterSample events — a crash abandons the runtime and reopens the
// store's directory the same way. The caller owns the returned result's
// Runtime (and should Close it).
func RunChaos(cfg Config, samples []telemetry.Sample, chaos *faults.ChaosSchedule) (*ChaosResult, error) {
	for _, e := range chaos.Events() {
		if e.Kind == faults.CrashAfterSample && cfg.Store == nil {
			return nil, fmt.Errorf("serve: chaos schedule crashes at sample %d but config has no store", e.Sample)
		}
	}
	rt, err := Recover(cfg)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Runtime: rt, Resumed: int(rt.ingested)}
	if res.Resumed > len(samples) {
		rt.Close()
		return nil, fmt.Errorf("serve: store has seen %d samples, the trace holds %d", res.Resumed, len(samples))
	}
	throttle := rt.throttle
	for i := res.Resumed; i < len(samples); i++ {
		if f := chaos.PlannerFactor(i); f != throttle {
			if err := rt.SetPlannerThrottle(f); err != nil {
				return res, fmt.Errorf("serve: chaos throttle at sample %d: %w", i, err)
			}
			throttle = f
			res.Throttles++
		}
		s := samples[i]
		if kind, ok := chaos.Corruption(i); ok {
			s = corruptSample(s, kind)
			res.Corrupted++
		}
		if _, err := rt.Ingest(s); err != nil {
			var bad *joint.BadObservationError
			var q *QuarantineError
			if !errors.As(err, &bad) && !errors.As(err, &q) {
				return res, fmt.Errorf("serve: chaos sample %d: %w", i, err)
			}
			res.Rejections++
		}
		if chaos.CrashAfter(i) {
			if err := rt.Close(); err != nil {
				return res, fmt.Errorf("serve: chaos crash after sample %d: %w", i, err)
			}
			store, err := OpenStore(cfg.Store.Dir())
			if err == nil {
				cfg.Store = store
				if rt, err = Recover(cfg); err != nil {
					store.Close()
				}
			}
			if err != nil {
				return res, fmt.Errorf("serve: chaos recovery after sample %d: %w", i, err)
			}
			res.Runtime = rt
			res.Crashes++
			if rt.ingested != uint64(i+1) {
				return res, fmt.Errorf("serve: chaos recovery after sample %d: store has seen %d samples, want %d", i, rt.ingested, i+1)
			}
			throttle = rt.throttle
		}
	}
	return res, nil
}

// corruptSample applies one chaos mangling. Every corruption carries the
// "chaos" source so quarantine accounting attributes the strikes.
func corruptSample(s telemetry.Sample, kind faults.CorruptKind) telemetry.Sample {
	c := s
	c.Source = "chaos"
	c.Uplinks = append([]float64(nil), s.Uplinks...)
	if len(c.Uplinks) == 0 {
		c.Uplinks = []float64{0}
	}
	switch kind {
	case faults.CorruptNaN:
		c.Uplinks[0] = math.NaN()
	case faults.CorruptNegative:
		c.Uplinks[0] = -1
	case faults.CorruptTimeRegression:
		c.Time = -1
	case faults.CorruptWidth:
		c.Uplinks = append(c.Uplinks, 0)
	}
	return c
}

package sim

import (
	"fmt"
	"math"

	"edgesurgeon/internal/faults"
	"edgesurgeon/internal/netmodel"
	"edgesurgeon/internal/telemetry"
)

// RecordTrace samples the cluster's observable state over [0, horizon) at a
// fixed period: each sample carries every server link's netmodel.WindowRate
// over the period (what the dispatcher's ObserveWindow probes) and
// the fault schedule's reachability vector at the sample instant. The
// result is exactly what a live cluster's periodic telemetry probes would
// deliver, in the format serve.Runtime ingests and cmd/edgeserved replays —
// so simulator scenarios double as control-plane traces. A nil schedule
// records an always-healthy cluster. The trace is a pure function of its
// inputs: recording twice yields identical samples.
func RecordTrace(links []netmodel.Link, sched *faults.Schedule, horizon, period float64) ([]telemetry.Sample, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("sim: trace needs at least one server")
	}
	if !(horizon > 0 && period > 0) || math.IsInf(horizon, 1) || math.IsInf(period, 1) {
		return nil, fmt.Errorf("sim: trace needs finite positive horizon and period, got %g/%g", horizon, period)
	}
	if horizon/period >= math.MaxInt {
		return nil, fmt.Errorf("sim: horizon %g over period %g is more samples than an int counts", horizon, period)
	}
	n := int(horizon / period)
	if float64(n)*period < horizon {
		n++
	}
	samples := make([]telemetry.Sample, 0, n)
	for i := 0; i < n; i++ {
		t := float64(i) * period
		s := telemetry.Sample{
			Time:    t,
			Uplinks: make([]float64, len(links)),
			Health:  sched.Health(len(links), t),
		}
		for si, l := range links {
			s.Uplinks[si] = netmodel.WindowRate(l, t, period)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

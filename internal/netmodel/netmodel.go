// Package netmodel models the access network between end devices and edge
// servers: static links, piecewise-constant rate traces, and Markov-fading
// wireless channels. Rates are functions of (virtual) time so that the
// simulator can integrate a transfer across rate changes exactly — the
// substitute for the paper's real Wi-Fi/cellular uplinks.
package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Link exposes the capacity of one (shared) network link over virtual time.
type Link interface {
	// Name identifies the link in traces and tables.
	Name() string
	// RateAt returns the link capacity in bits per second at time t.
	RateAt(t float64) float64
	// NextChange returns the first time strictly after t at which the rate
	// changes, or +Inf for constant-rate links. Exact transfer integration
	// steps on these boundaries.
	NextChange(t float64) float64
	// RTT returns the round-trip propagation latency in seconds.
	RTT() float64
}

// Mbps converts megabits/second to bits/second.
func Mbps(v float64) float64 { return v * 1e6 }

// StaticLink is a constant-rate link.
type StaticLink struct {
	LinkName string
	RateBps  float64
	RTTSec   float64
}

// validRate reports whether r is finite and positive (NaN compares false).
func validRate(r float64) bool { return r > 0 && !math.IsInf(r, 1) }

// NewStatic builds a constant-rate link; a rate not finite and positive panics.
func NewStatic(name string, rateBps, rtt float64) *StaticLink {
	if !validRate(rateBps) {
		panic(fmt.Sprintf("netmodel: rate %g for link %q is not finite and positive", rateBps, name))
	}
	return &StaticLink{LinkName: name, RateBps: rateBps, RTTSec: rtt}
}

// Name implements Link.
func (l *StaticLink) Name() string { return l.LinkName }

// RateAt implements Link.
func (l *StaticLink) RateAt(float64) float64 { return l.RateBps }

// NextChange implements Link.
func (l *StaticLink) NextChange(float64) float64 { return math.Inf(1) }

// RTT implements Link.
func (l *StaticLink) RTT() float64 { return l.RTTSec }

// TraceLink is a piecewise-constant rate trace. Beyond the last sample the
// final rate holds forever; before the first sample the first rate holds.
type TraceLink struct {
	LinkName string
	Times    []float64 // strictly increasing segment start times
	Rates    []float64 // rate (bps) from Times[i] until Times[i+1]
	RTTSec   float64
}

// NewTrace builds a piecewise-constant link from parallel slices.
func NewTrace(name string, times, rates []float64, rtt float64) (*TraceLink, error) {
	if len(times) == 0 || len(times) != len(rates) {
		return nil, fmt.Errorf("netmodel: trace %q needs equal non-empty times/rates, got %d/%d", name, len(times), len(rates))
	}
	for i := range times {
		if math.IsNaN(times[i]) || i > 0 && !(times[i] > times[i-1]) {
			return nil, fmt.Errorf("netmodel: trace %q times not strictly increasing at %d", name, i)
		}
		if !validRate(rates[i]) {
			return nil, fmt.Errorf("netmodel: trace %q rate %g at %d is not finite and positive", name, rates[i], i)
		}
	}
	return &TraceLink{LinkName: name, Times: times, Rates: rates, RTTSec: rtt}, nil
}

// Name implements Link.
func (l *TraceLink) Name() string { return l.LinkName }

// seg returns the index of the segment active at time t.
func (l *TraceLink) seg(t float64) int {
	// First segment extends backward to -inf.
	i := sort.SearchFloat64s(l.Times, t)
	// SearchFloat64s returns the first index with Times[i] >= t.
	if i < len(l.Times) && l.Times[i] == t {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// RateAt implements Link.
func (l *TraceLink) RateAt(t float64) float64 { return l.Rates[l.seg(t)] }

// NextChange implements Link.
func (l *TraceLink) NextChange(t float64) float64 {
	i := sort.SearchFloat64s(l.Times, t)
	for i < len(l.Times) && l.Times[i] <= t {
		i++
	}
	if i >= len(l.Times) {
		return math.Inf(1)
	}
	return l.Times[i]
}

// RTT implements Link.
func (l *TraceLink) RTT() float64 { return l.RTTSec }

// FadingConfig parameterizes a Gilbert-Elliott-style Markov fading channel
// with an arbitrary number of states.
type FadingConfig struct {
	// States are the per-state capacities in bps.
	States []float64
	// MeanDwell is the mean state-holding time in seconds (exponential).
	MeanDwell float64
	// Horizon is the trace length to pre-generate in seconds.
	Horizon float64
	// RTT is the propagation round-trip in seconds.
	RTT float64
	// Seed fixes the state sequence for reproducibility.
	Seed int64
}

// maxFadingDwells bounds a fading trace's horizon in mean dwells. The trace
// holds about one segment per dwell (some 80 bytes each), so the bound keeps
// one link under about 100 MB.
const maxFadingDwells = 1e6

// NewFading generates a Markov-fading link as a piecewise-constant trace:
// the chain moves to a uniformly random *different* state after each
// exponential dwell.
func NewFading(name string, cfg FadingConfig) (*TraceLink, error) {
	if len(cfg.States) < 2 {
		return nil, fmt.Errorf("netmodel: fading link %q needs >= 2 states", name)
	}
	for i, r := range cfg.States {
		if !validRate(r) {
			return nil, fmt.Errorf("netmodel: fading link %q state %d rate %g is not finite and positive", name, i, r)
		}
	}
	if !(cfg.MeanDwell > 0) || !(cfg.Horizon > 0) || math.IsInf(cfg.MeanDwell, 1) || math.IsInf(cfg.Horizon, 1) {
		return nil, fmt.Errorf("netmodel: fading link %q needs finite positive dwell and horizon, got %g and %g", name, cfg.MeanDwell, cfg.Horizon)
	}
	if cfg.Horizon > maxFadingDwells*cfg.MeanDwell {
		return nil, fmt.Errorf("netmodel: fading link %q horizon %gs exceeds %g mean dwells of %gs", name, cfg.Horizon, maxFadingDwells, cfg.MeanDwell)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var times, rates []float64
	t := 0.0
	state := rng.Intn(len(cfg.States))
	for t < cfg.Horizon {
		times = append(times, t)
		rates = append(rates, cfg.States[state])
		t += rng.ExpFloat64() * cfg.MeanDwell
		next := rng.Intn(len(cfg.States) - 1)
		if next >= state {
			next++
		}
		state = next
	}
	return NewTrace(name, times, rates, cfg.RTT)
}

// MeanRate returns the time-average capacity of the link over [0, horizon].
func MeanRate(l Link, horizon float64) float64 {
	if horizon <= 0 {
		return l.RateAt(0)
	}
	var area float64
	t := 0.0
	for t < horizon {
		next := math.Min(l.NextChange(t), horizon)
		area += l.RateAt(t) * (next - t)
		t = next
	}
	return area / horizon
}

// WindowRate is the rate a periodic probe observes over [t, t+window): the
// mean of 16 evenly spaced samples of the link's capacity.
func WindowRate(l Link, t, window float64) float64 {
	const steps = 16
	var sum float64
	for k := 0; k < steps; k++ {
		sum += l.RateAt(t + window*float64(k)/steps)
	}
	return sum / steps
}

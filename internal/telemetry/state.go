package telemetry

import "fmt"

// HistogramState is the serializable contents of one Histogram.
type HistogramState struct {
	// Bounds are the finite bucket upper bounds.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the +Inf bucket.
	Counts []int64 `json:"counts"`
	// Sum is the running sum of all observations.
	Sum float64 `json:"sum"`
}

// RegistryState is a serializable point-in-time copy of a Registry, the
// metric half of a control-plane snapshot: a crashed serve.Runtime restores
// its counters from here so a recovered run renders the same /metrics text
// as an uninterrupted one.
type RegistryState struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramState `json:"histograms,omitempty"`
}

// State captures every metric in the registry. It is the registry's one
// capture: WriteText renders it and a control-plane snapshot stores it.
func (r *Registry) State() RegistryState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RegistryState{}
	if len(r.counters) > 0 {
		st.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			st.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		st.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			st.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		st.Histograms = make(map[string]HistogramState, len(r.hists))
		for name, h := range r.hists {
			h.mu.Lock()
			st.Histograms[name] = HistogramState{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: append([]int64(nil), h.counts...),
				Sum:    h.sum,
			}
			h.mu.Unlock()
		}
	}
	return st
}

// Restore overwrites the registry's metrics from a captured state. Metrics
// are restored in place: instances already handed out by Counter/Gauge/
// Histogram keep working and read the restored values. Metrics present in
// the registry but absent from st are left untouched (they were created
// after the capture and hold their zero value on a fresh registry).
// A histogram whose existing bounds disagree with the state is an error.
func (r *Registry) Restore(st RegistryState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range st.Counters {
		if v < 0 {
			return fmt.Errorf("telemetry: restoring counter %s to negative value %d", name, v)
		}
		c, ok := r.counters[name]
		if !ok {
			c = &Counter{}
			r.counters[name] = c
		}
		c.v.Store(v)
	}
	for name, v := range st.Gauges {
		g, ok := r.gauges[name]
		if !ok {
			g = &Gauge{}
			r.gauges[name] = g
		}
		g.Set(v)
	}
	for name, hs := range st.Histograms {
		if len(hs.Counts) != len(hs.Bounds)+1 {
			return fmt.Errorf("telemetry: histogram %s state has %d counts for %d bounds", name, len(hs.Counts), len(hs.Bounds))
		}
		for i, c := range hs.Counts {
			if c < 0 {
				return fmt.Errorf("telemetry: histogram %s state has negative count at bucket %d", name, i)
			}
		}
		h, ok := r.hists[name]
		if !ok {
			var err error
			h, err = NewHistogram(hs.Bounds...)
			if err != nil {
				return fmt.Errorf("telemetry: histogram %s state: %w", name, err)
			}
			r.hists[name] = h
		}
		h.mu.Lock()
		if len(h.bounds) != len(hs.Bounds) {
			h.mu.Unlock()
			return fmt.Errorf("telemetry: restoring histogram %s with %d bounds over existing %d", name, len(hs.Bounds), len(h.bounds))
		}
		for i, b := range h.bounds {
			if b != hs.Bounds[i] {
				h.mu.Unlock()
				return fmt.Errorf("telemetry: restoring histogram %s with mismatched bound %d (%g vs %g)", name, i, hs.Bounds[i], b)
			}
		}
		copy(h.counts, hs.Counts)
		h.sum = hs.Sum
		h.mu.Unlock()
	}
	return nil
}

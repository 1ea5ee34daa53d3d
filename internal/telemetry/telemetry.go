// Package telemetry is the dependency-free measurement layer of the online
// control plane: atomic counters and gauges, fixed-bucket histograms, a
// named-metric registry with a deterministic text rendering (the `/metrics`
// endpoint of cmd/edgeserved), a typed event journal that records replan
// decisions, a line-oriented codec for telemetry traces (timestamped
// uplink/health samples) so a recorded trace replays bit-identically, and
// the CPU/heap profile files the binaries write on request. Everything here
// depends only on the standard library — internal/joint, internal/sim and
// internal/serve all hook into it without creating import cycles.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count, safe for concurrent use. The zero
// value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-written float64 value, safe for concurrent use. The zero
// value reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last written value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with strictly
// increasing upper bounds plus an implicit +Inf overflow bucket. It is
// concurrency-safe.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds of the finite buckets
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	n      int64
	sum    float64
}

// NewHistogram builds a histogram over the given strictly increasing,
// finite upper bounds. At least one bound is required.
func NewHistogram(bounds ...float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("telemetry: bucket bound %d (%g) is not finite", i, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("telemetry: bucket bounds not strictly increasing at %d (%g after %g)", i, b, bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
	}, nil
}

// MustHistogram is NewHistogram for hand-authored bounds.
func MustHistogram(bounds ...float64) *Histogram {
	h, err := NewHistogram(bounds...)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one value into the first bucket whose bound covers it
// (<= bound), or the overflow bucket.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.n++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Buckets returns a copy of the per-bucket counts; the last entry is the
// +Inf overflow bucket.
func (h *Histogram) Buckets() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...)
}

// Bounds returns a copy of the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Registry is a named-metric namespace. Lookups are get-or-create, so
// independently instrumented components that agree on a name share the
// metric. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later calls ignore the bounds argument and return the
// existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = MustHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every scalar metric as name -> value: counters as their
// count, gauges as their value, histograms expanded to name.count and
// name.sum. The map is a point-in-time copy.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = h.Sum()
	}
	return out
}

// WriteText renders the registry in a deterministic one-line-per-metric
// text format (sorted within each metric family), the payload of the
// edgeserved `/metrics` endpoint. Two registries that observed the same
// history render byte-identically.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	counters := make([]string, 0, len(r.counters))
	for name := range r.counters {
		counters = append(counters, name)
	}
	gauges := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gauges = append(gauges, name)
	}
	hists := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hists = append(hists, name)
	}
	cv := make(map[string]int64, len(counters))
	for name, c := range r.counters {
		cv[name] = c.Value()
	}
	gv := make(map[string]float64, len(gauges))
	for name, g := range r.gauges {
		gv[name] = g.Value()
	}
	hv := make(map[string]*Histogram, len(hists))
	for name, h := range r.hists {
		hv[name] = h
	}
	r.mu.Unlock()

	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	var b strings.Builder
	for _, name := range counters {
		fmt.Fprintf(&b, "counter %s %d\n", name, cv[name])
	}
	for _, name := range gauges {
		fmt.Fprintf(&b, "gauge %s %s\n", name, formatFloat(gv[name]))
	}
	for _, name := range hists {
		h := hv[name]
		bounds := h.Bounds()
		counts := h.Buckets()
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s buckets=", name, h.Count(), formatFloat(h.Sum()))
		for i, c := range counts {
			if i > 0 {
				b.WriteByte(',')
			}
			if i < len(bounds) {
				fmt.Fprintf(&b, "le%s:%d", formatFloat(bounds[i]), c)
			} else {
				fmt.Fprintf(&b, "+inf:%d", c)
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text renders WriteText into a string.
func (r *Registry) Text() string {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = r.WriteText(&b)
	return b.String()
}

// formatFloat renders a float deterministically at full round-trip
// precision.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

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
	h.sum += v
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

// WriteText renders the registry's State in a deterministic
// one-line-per-metric text format (counters, gauges, then histograms, each
// sorted by name), the payload of the edgeserved `/metrics` endpoint. Two
// registries that observed the same history render byte-identically.
func (r *Registry) WriteText(w io.Writer) error {
	st := r.State()
	var b strings.Builder
	for _, name := range sortedNames(st.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, st.Counters[name])
	}
	for _, name := range sortedNames(st.Gauges) {
		fmt.Fprintf(&b, "gauge %s %s\n", name, formatFloat(st.Gauges[name]))
	}
	for _, name := range sortedNames(st.Histograms) {
		h := st.Histograms[name]
		var n int64
		for _, c := range h.Counts {
			n += c
		}
		fmt.Fprintf(&b, "histogram %s count=%d sum=%s buckets=", name, n, formatFloat(h.Sum))
		for i, c := range h.Counts {
			if i > 0 {
				b.WriteByte(',')
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(&b, "le%s:%d", formatFloat(h.Bounds[i]), c)
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

// sortedNames returns the keys of m in ascending order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// formatFloat renders a float deterministically at full round-trip
// precision.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
